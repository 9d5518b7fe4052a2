// Deterministic randomness for the simulator.
//
// The paper's lower bounds use *public* coins: Alice, Bob, and the
// ground-truth reference execution must all observe identical coin flips
// without communicating.  We therefore derive every coin from a pure
// counter-mode construction hash(seed, node, round, index) instead of a
// stateful generator whose value depends on who consumed coins before.
//
// CoinStream is the per-(node, round) stream handed to a Process; Rng is a
// conventional sequential generator (xoshiro-style) for workload generation.
#pragma once

#include <cmath>
#include <cstdint>

namespace dynet::util {

/// SplitMix64 finalizer; a strong 64-bit mixing function.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Combines words into a single 64-bit key (not cryptographic; statistically
/// strong enough for simulation).
constexpr std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Sequential pseudo-random generator (splitmix-driven), used for workload
/// and instance generation where counter-mode addressing is unnecessary.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix64(seed ^ 0x5bf03635d78dd4ceULL)) {}

  std::uint64_t u64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    // Multiply-shift rejection-free mapping (Lemire); bias is negligible for
    // simulation-sized bounds.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(u64()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool coin() { return (u64() & 1) != 0; }

  /// Uniform real in [0, 1).
  double real() { return static_cast<double>(u64() >> 11) * 0x1.0p-53; }

  /// Exponential(1) variate; strictly positive.
  double exponential() {
    double u;
    do {
      u = real();
    } while (u <= 0.0);
    return -std::log(u);
  }

 private:
  std::uint64_t state_;
};

/// Counter-mode coin stream: every value is a pure function of
/// (seed, node, round, index).  Identical streams can be re-derived by any
/// party that knows the addressing tuple — the mechanism behind public coins
/// in the two-party reduction.
class CoinStream {
 public:
  /// Counter salt of u64(): draw i is mix64(key ^ mix64(i + kCounterSalt)).
  static constexpr std::uint64_t kCounterSalt = 0x243f6a8885a308d3ULL;
  /// mix64(0 + kCounterSalt), folded: the inner hash of the first draw.
  static constexpr std::uint64_t kFirstDrawSalt = mix64(kCounterSalt);

  CoinStream(std::uint64_t seed, std::uint64_t node, std::uint64_t round)
      : key_(hashCombine(hashCombine(seed, node), round)), counter_(0) {}

  /// Same stream as CoinStream(seed, node, round) when node_key ==
  /// hashCombine(seed, node).  The engine precomputes the node keys once
  /// per trial, halving the per-(node, round) construction hashing without
  /// touching the coin values.
  static CoinStream fromNodeKey(std::uint64_t node_key, std::uint64_t round) {
    return CoinStream(roundKey(node_key, round));
  }

  /// The construction hash fromNodeKey performs before any draw, exposed so
  /// hot loops can derive it once and share it between firstCoin and a full
  /// stream.
  static std::uint64_t roundKey(std::uint64_t node_key, std::uint64_t round) {
    return hashCombine(node_key, round);
  }

  /// Stream over a precomputed roundKey with the first `skip` draws already
  /// consumed: fromRoundKey(roundKey(k, r), 0) == fromNodeKey(k, r).
  static CoinStream fromRoundKey(std::uint64_t round_key,
                                 std::uint64_t skip = 0) {
    CoinStream c(round_key);
    c.counter_ = skip;
    return c;
  }

  /// coin() of a fresh fromRoundKey(round_key) stream without constructing
  /// it — one mix64 instead of two.  SoA compute loops use this for
  /// protocols whose round draws start with a coin.
  static bool firstCoin(std::uint64_t round_key) {
    return (mix64(round_key ^ kFirstDrawSalt) & 1) != 0;
  }

  std::uint64_t u64() { return mix64(key_ ^ mix64(counter_++ + kCounterSalt)); }

  bool coin() { return (u64() & 1) != 0; }

  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(u64()) * bound) >> 64);
  }

  double real() { return static_cast<double>(u64() >> 11) * 0x1.0p-53; }

  double exponential() {
    double u;
    do {
      u = real();
    } while (u <= 0.0);
    return -std::log(u);
  }

 private:
  explicit CoinStream(std::uint64_t key) : key_(key), counter_(0) {}

  std::uint64_t key_;
  std::uint64_t counter_;
};

/// Derives a per-node private seed from a master seed (for private-coin
/// upper-bound protocols).
constexpr std::uint64_t privateSeed(std::uint64_t master, std::uint64_t node) {
  return hashCombine(master ^ 0x452821e638d01377ULL, node);
}

}  // namespace dynet::util
