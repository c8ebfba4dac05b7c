#include "util/rng.hpp"

namespace dominosyn {

BiasedBits::BiasedBits(double p) noexcept {
  if (p <= 0.0) return;
  if (p >= 1.0) {
    constant_ = ~0ULL;
    return;
  }
  // Extract the leading 16 binary digits of p (resolution 2^-16, ample for
  // signal-probability targets like 0.5 or 0.9).
  double rem = p;
  while (num_digits_ < 16) {
    rem *= 2.0;
    if (rem >= 1.0) {
      digits_ |= 1U << num_digits_;
      rem -= 1.0;
    }
    ++num_digits_;
    if (rem == 0.0) break;
  }
}

std::uint64_t Rng::biased_bits(double p) noexcept { return BiasedBits(p).next(*this); }

}  // namespace dominosyn
