#ifndef BELLWETHER_ROBUST_CHECKPOINT_H_
#define BELLWETHER_ROBUST_CHECKPOINT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace bellwether::robust {

/// Word-wise FNV-1a accumulator, rotated after each multiply so every bit
/// of a word reaches every bit of the hash. It gives build fingerprints (a
/// saved state is only reopened when the fingerprint recomputed from the
/// current subset space, config, and mask matches the one stored with it)
/// and the checksum closing a saved state. Each step is a bijection of the
/// hash, so a change within one 8-byte word is always detected; the value
/// does not depend on how the bytes are split across Update calls.
class FingerprintBuilder {
 public:
  FingerprintBuilder& Add(uint64_t v) { return Update(&v, sizeof(v)); }

  FingerprintBuilder& Update(const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    length_ += bytes;
    while (bytes > 0) {
      if (pending_ == 0 && bytes >= 8) {
        Mix(p);
        p += 8;
        bytes -= 8;
        continue;
      }
      tail_[pending_++] = *p++;
      --bytes;
      if (pending_ == 8) {
        Mix(tail_);
        pending_ = 0;
      }
    }
    return *this;
  }

  /// Folds in the zero-padded tail and the total length.
  uint64_t value() const {
    FingerprintBuilder closed = *this;
    unsigned char last[8] = {};
    std::memcpy(last, tail_, pending_);
    closed.Mix(last);
    closed.Mix(reinterpret_cast<const unsigned char*>(&length_));
    return closed.h_;
  }

 private:
  void Mix(const unsigned char* word) {
    uint64_t w = 0;
    std::memcpy(&w, word, sizeof(w));
    h_ = std::rotl((h_ ^ w) * 0x100000001B3ULL, 29);
  }

  uint64_t h_ = 0xCBF29CE484222325ULL;
  uint64_t length_ = 0;
  unsigned char tail_[8] = {};
  size_t pending_ = 0;
};

}  // namespace bellwether::robust

#endif  // BELLWETHER_ROBUST_CHECKPOINT_H_
