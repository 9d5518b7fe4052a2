// Bit-granular serialization with a hard budget.
//
// CONGEST messages carry O(log N) bits; the simulator enforces the budget on
// every message.  BitWriter/BitReader pack fields little-endian-first into a
// word array owned by the caller (sim::Message wraps one).
//
// put() and get() run for every field of every message, so each keeps its
// checks on a cold path: one [[unlikely]] branch tests all of the call's
// conditions, and only a failing call enters a noinline, cold member that
// re-runs the DYNET_CHECKs one by one, in order, to throw the same
// CheckError text as a check inline would.  The fast path is then small
// enough to inline into sim::MessageBuilder and sim::MessageReader.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <span>

#include "util/check.h"

namespace dynet::util {

/// Number of bits needed to represent values in [0, n); at least 1.
constexpr int bitWidthFor(std::uint64_t n) {
  int w = 1;
  while ((std::uint64_t{1} << w) < n && w < 63) {
    ++w;
  }
  return w;
}

/// Appends bit fields to a word buffer.  The caller provides capacity; the
/// writer checks every append against it.
class BitWriter {
 public:
  BitWriter(std::span<std::uint64_t> words, int capacity_bits)
      : words_(words), capacity_bits_(capacity_bits) {
    DYNET_CHECK(capacity_bits >= 0 &&
                static_cast<std::size_t>((capacity_bits + 63) / 64) <= words.size())
        << "capacity " << capacity_bits << " bits does not fit buffer";
  }

  /// Appends the low `width` bits of `value`.  width in [0, 64]; a
  /// zero-width field writes nothing, whatever `value` is.
  void put(std::uint64_t value, int width) {
    if (!(width >= 0 && width <= 64 && bits_ + width <= capacity_bits_ &&
          (width == 0 || width == 64 || (value >> width) == 0))) [[unlikely]] {
      putFailed(value, width);
    }
    if (width == 0) {
      return;
    }
    int word = bits_ >> 6;
    int offset = bits_ & 63;
    words_[word] |= value << offset;
    if (offset + width > 64) {
      words_[word + 1] |= value >> (64 - offset);
    }
    bits_ += width;
  }

  int bitsWritten() const { return bits_; }

 private:
  /// put()'s checks, run only once one of them is known to fail.
  [[noreturn, gnu::cold, gnu::noinline]] void putFailed(std::uint64_t value,
                                                        int width) const {
    DYNET_CHECK(width >= 0 && width <= 64) << "width=" << width;
    DYNET_CHECK(bits_ + width <= capacity_bits_)
        << "bit budget exceeded: " << bits_ << "+" << width << " > "
        << capacity_bits_;
    if (width > 0 && width < 64) {
      DYNET_CHECK((value >> width) == 0)
          << "value " << value << " wider than " << width << " bits";
    }
    std::abort();  // unreachable: put() calls this only when a check fails
  }

  std::span<std::uint64_t> words_;
  int capacity_bits_;
  int bits_ = 0;
};

/// Reads back bit fields written by BitWriter, in order.
class BitReader {
 public:
  BitReader(std::span<const std::uint64_t> words, int total_bits)
      : words_(words), total_bits_(total_bits) {}

  std::uint64_t get(int width) {
    if (!(width >= 0 && width <= 64 && pos_ + width <= total_bits_))
        [[unlikely]] {
      getFailed(width);
    }
    if (width == 0) {
      return 0;
    }
    int word = pos_ >> 6;
    int offset = pos_ & 63;
    std::uint64_t value = words_[word] >> offset;
    if (offset + width > 64) {
      value |= words_[word + 1] << (64 - offset);
    }
    pos_ += width;
    if (width < 64) {
      value &= (std::uint64_t{1} << width) - 1;
    }
    return value;
  }

  int bitsRemaining() const { return total_bits_ - pos_; }

 private:
  /// get()'s checks, run only once one of them is known to fail.
  [[noreturn, gnu::cold, gnu::noinline]] void getFailed(int width) const {
    DYNET_CHECK(width >= 0 && width <= 64) << "width=" << width;
    DYNET_CHECK(pos_ + width <= total_bits_)
        << "read past end: " << pos_ << "+" << width << " > " << total_bits_;
    std::abort();  // unreachable: get() calls this only when a check fails
  }

  std::span<const std::uint64_t> words_;
  int total_bits_;
  int pos_ = 0;
};

/// Lossy 16-bit encoding of non-negative reals, used for exponential-minima
/// aggregation values.  Encodes log2(x) with 8 fractional bits over a wide
/// dynamic range; relative error is below 0.3%, far inside the estimator's
/// statistical error.
std::uint16_t encodeReal16(double x);
double decodeReal16(std::uint16_t code);

}  // namespace dynet::util
