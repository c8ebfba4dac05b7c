/// \file bits.hpp
/// Population count for the word-parallel kernels.

#pragma once

#include <cstdint>

namespace dominosyn {

/// Portable SWAR population count.  The build targets baseline x86-64, where
/// std::popcount is an out-of-line libgcc call per word; inline bit
/// arithmetic is several times cheaper in per-word sweeps.
[[nodiscard]] inline std::uint32_t count_ones(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace dominosyn
