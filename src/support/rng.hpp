/// \file rng.hpp
/// Deterministic random number generation. Every stochastic component in
/// qirkit (measurement sampling, workload generators) takes an explicit
/// seed so that tests and benchmarks are reproducible.
#pragma once

#include <cstdint>
#include <limits>

namespace qirkit {

/// SplitMix64: tiny, fast, high-quality 64-bit PRNG. Used directly and to
/// seed larger state. Satisfies std::uniform_random_bit_generator.
class SplitMix64 {
public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    state_ += kGamma;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Jump ahead \p n draws in O(1): the state is a counter stepped by a
  /// fixed increment, so this equals calling operator() n times.
  constexpr void discard(std::uint64_t n) noexcept { state_ += n * kGamma; }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). \p bound must be nonzero.
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire's multiply-shift rejection method without the rejection step;
    // bias is < 2^-32 for the bounds used here (circuit sizes).
    const unsigned __int128 product =
        static_cast<unsigned __int128>((*this)()) * bound;
    return static_cast<std::uint64_t>(product >> 64);
  }

private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  std::uint64_t state_;
};

} // namespace qirkit
