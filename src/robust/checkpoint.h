#ifndef BELLWETHER_ROBUST_CHECKPOINT_H_
#define BELLWETHER_ROBUST_CHECKPOINT_H_

#include <cstdint>

namespace bellwether::robust {

/// FNV-1a accumulator for build fingerprints: a saved state is only reopened
/// when the fingerprint recomputed from the current subset space, config,
/// and mask matches the one stored with it, so stale saves are rejected
/// instead of corrupting a build.
class FingerprintBuilder {
 public:
  FingerprintBuilder& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace bellwether::robust

#endif  // BELLWETHER_ROBUST_CHECKPOINT_H_
