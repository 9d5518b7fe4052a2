#include "lowerbound/distance_lb.h"

#include <algorithm>
#include <utility>

#include "util/bitio.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::lb {

namespace {

// Largest m >= 2 such that the ACH gadget with `width` bits fits n nodes:
// 2m index nodes + 4*width bit nodes + the 4-node spine (ca, cb, sa, sb).
// Indices must be distinct in `width` bits, so m is also capped at 2^width.
int achLargestM(net::NodeId n, int width) {
  const net::NodeId fixed = 4 * static_cast<net::NodeId>(width) + 4;
  if (n < fixed + 4) {
    return 0;
  }
  std::int64_t m = (static_cast<std::int64_t>(n) - fixed) / 2;
  if (width < 31) {
    m = std::min<std::int64_t>(m, std::int64_t{1} << width);
  }
  return static_cast<int>(std::min<std::int64_t>(m, 1 << 30));
}

}  // namespace

net::NodeId AchBitGadget::minNodes(int width) {
  DYNET_CHECK(width >= 0) << "ach_gadget width must be >= 0, got " << width;
  const int w = width > 0 ? width : 1;  // auto width for m = 2 is 1 bit
  return static_cast<net::NodeId>(2 * 2 + 4 * w + 4);
}

AchBitGadget::AchBitGadget(net::NodeId n, int width, std::uint64_t seed,
                           bool intersect)
    : n_(n), intersects_(intersect) {
  DYNET_CHECK(width >= 0) << "ach_gadget width must be >= 0, got " << width;
  DYNET_CHECK(n >= minNodes(width))
      << "ach_gadget needs n >= " << minNodes(width) << " at width " << width
      << " (2 indices per side + 4*width bit nodes + 4 spine nodes), got n="
      << n;
  if (width > 0) {
    width_ = width;
    m_ = achLargestM(n, width_);
  } else {
    // Auto width: grow m as far as the budget allows, paying bitWidthFor(m)
    // bits as m grows.
    m_ = 2;
    width_ = 1;
    for (int m = 2;; ++m) {
      const int w = util::bitWidthFor(static_cast<std::uint64_t>(m));
      if (achLargestM(n, w) < m) {
        break;
      }
      m_ = m;
      width_ = w;
    }
  }
  DYNET_CHECK(m_ >= 2) << "ach_gadget: no m >= 2 fits n=" << n << " at width "
                       << width_;

  // Node layout.
  const auto a = [&](int i) { return static_cast<net::NodeId>(i); };
  const auto b = [&](int i) { return static_cast<net::NodeId>(m_ + i); };
  const auto fa = [&](int h, int v) {
    return static_cast<net::NodeId>(2 * m_ + 2 * h + v);
  };
  const auto fb = [&](int h, int v) {
    return static_cast<net::NodeId>(2 * m_ + 2 * width_ + 2 * h + v);
  };
  const auto ca = static_cast<net::NodeId>(2 * m_ + 4 * width_);
  const auto cb = static_cast<net::NodeId>(ca + 1);
  const auto sa = static_cast<net::NodeId>(ca + 2);
  const auto sb = static_cast<net::NodeId>(ca + 3);
  const auto base = static_cast<net::NodeId>(ca + 4);

  // Seeded disjointness inputs.  The clean instance keeps x nonempty so some
  // pair (a_i, b_i) still needs the length-4 spine route and the diameter is
  // exactly 4, never 3.
  util::Rng rng(util::mix64(seed ^ 0x616368676164ULL));
  std::vector<char> x(static_cast<std::size_t>(m_), 0);
  std::vector<char> y(static_cast<std::size_t>(m_), 0);
  for (int i = 0; i < m_; ++i) {
    x[static_cast<std::size_t>(i)] = rng.coin() ? 1 : 0;
    y[static_cast<std::size_t>(i)] = rng.coin() ? 1 : 0;
  }
  if (intersect) {
    const auto r = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(m_)));
    x[r] = 1;
    y[r] = 1;
  } else {
    for (int i = 0; i < m_; ++i) {
      if (x[static_cast<std::size_t>(i)] != 0 &&
          y[static_cast<std::size_t>(i)] != 0) {
        y[static_cast<std::size_t>(i)] = 0;
      }
    }
    if (std::find(x.begin(), x.end(), 1) == x.end()) {
      x[0] = 1;
      y[0] = 0;
    }
  }

  std::vector<net::Edge> edges;
  edges.reserve(static_cast<std::size_t>(2 * m_ * (width_ + 2) + 6 * width_ +
                                         (n - base) + 8));
  for (int i = 0; i < m_; ++i) {
    edges.push_back({ca, a(i)});
    edges.push_back({cb, b(i)});
    for (int h = 0; h < width_; ++h) {
      edges.push_back({a(i), fa(h, (i >> h) & 1)});
      edges.push_back({b(i), fb(h, 1 - ((i >> h) & 1))});
    }
    if (x[static_cast<std::size_t>(i)] == 0) {
      edges.push_back({a(i), sa});
    }
    if (y[static_cast<std::size_t>(i)] == 0) {
      edges.push_back({b(i), sb});
    }
  }
  for (int h = 0; h < width_; ++h) {
    for (int v = 0; v < 2; ++v) {
      edges.push_back({fa(h, v), fb(h, v)});
      edges.push_back({fa(h, v), sa});
      edges.push_back({fb(h, v), sb});
    }
  }
  edges.push_back({ca, sa});
  edges.push_back({sa, sb});
  edges.push_back({sb, cb});
  // Pendant pads on sa: every node is within 3 of sa except the b side
  // (<= 4), so pads never stretch the diameter past the gadget's own 4/5.
  for (net::NodeId v = base; v < n; ++v) {
    edges.push_back({sa, v});
  }
  graph_ = std::make_shared<net::Graph>(n, std::move(edges));
}

net::NodeId BkApproxGadget::minNodes(int width, int stretch) {
  DYNET_CHECK(width >= 0 && width % 2 == 0)
      << "bk_gadget width must be even and >= 0 (supports use width/2 "
         "coordinates), got "
      << width;
  DYNET_CHECK(stretch >= 0) << "bk_gadget stretch must be >= 0, got "
                            << stretch;
  const int w = width > 0 ? width : 2;
  // 2 vectors per side, each with an antenna of `stretch` nodes, + width
  // coordinate nodes + the two hubs.
  return static_cast<net::NodeId>(4 * (1 + stretch) + w + 2);
}

BkApproxGadget::BkApproxGadget(net::NodeId n, int width, int stretch,
                               std::uint64_t seed, bool orthogonal)
    : n_(n), stretch_(stretch), orthogonal_(orthogonal) {
  DYNET_CHECK(n >= minNodes(width, stretch))
      << "bk_gadget needs n >= " << minNodes(width, stretch) << " at width "
      << width << ", stretch " << stretch << ", got n=" << n;
  width_ = width > 0 ? width : 2;
  const int k = width_ / 2;  // support size per vector
  m_ = static_cast<int>((static_cast<std::int64_t>(n) - width_ - 2) /
                        (2 * (1 + static_cast<std::int64_t>(stretch_))));
  DYNET_CHECK(m_ >= 2) << "bk_gadget: no m >= 2 fits n=" << n;

  // Supports: exactly k coordinates each, always containing coordinate 0 —
  // so in the clean instance every cross pair shares it.  The planted
  // orthogonal pair overrides vectors a_0 = {0..k-1} and b_0 = {k..2k-1}.
  util::Rng rng(util::mix64(seed ^ 0x626b676164ULL));
  const auto sampleSupport = [&]() {
    std::vector<int> coords(static_cast<std::size_t>(width_ - 1));
    for (int t = 1; t < width_; ++t) {
      coords[static_cast<std::size_t>(t - 1)] = t;
    }
    for (int i = 0; i < k - 1; ++i) {
      const auto j = i + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(width_ - 1 - i)));
      std::swap(coords[static_cast<std::size_t>(i)],
                coords[static_cast<std::size_t>(j)]);
    }
    std::vector<int> support{0};
    support.insert(support.end(), coords.begin(), coords.begin() + (k - 1));
    std::sort(support.begin(), support.end());
    return support;
  };
  std::vector<std::vector<int>> xs, ys;
  for (int i = 0; i < m_; ++i) {
    xs.push_back(sampleSupport());
    ys.push_back(sampleSupport());
  }
  if (orthogonal) {
    xs[0].clear();
    ys[0].clear();
    for (int t = 0; t < k; ++t) {
      xs[0].push_back(t);
      ys[0].push_back(k + t);
    }
  }

  // Node layout: vector bases, coordinates, hubs, then antennas and pads.
  const auto a = [&](int i) { return static_cast<net::NodeId>(i); };
  const auto b = [&](int j) { return static_cast<net::NodeId>(m_ + j); };
  const auto c = [&](int t) { return static_cast<net::NodeId>(2 * m_ + t); };
  const auto ha = static_cast<net::NodeId>(2 * m_ + width_);
  const auto hb = static_cast<net::NodeId>(ha + 1);
  net::NodeId next = static_cast<net::NodeId>(hb + 1);

  std::vector<net::Edge> edges;
  const auto antenna = [&](net::NodeId from) {
    net::NodeId prev = from;
    for (int q = 0; q < stretch_; ++q) {
      edges.push_back({prev, next});
      prev = next;
      ++next;
    }
  };
  for (int i = 0; i < m_; ++i) {
    edges.push_back({ha, a(i)});
    for (const int t : xs[static_cast<std::size_t>(i)]) {
      edges.push_back({a(i), c(t)});
    }
    antenna(a(i));
  }
  for (int j = 0; j < m_; ++j) {
    edges.push_back({hb, b(j)});
    for (const int t : ys[static_cast<std::size_t>(j)]) {
      edges.push_back({b(j), c(t)});
    }
    antenna(b(j));
  }
  for (int t = 0; t < width_; ++t) {
    edges.push_back({ha, c(t)});
    edges.push_back({hb, c(t)});
  }
  edges.push_back({ha, hb});
  // Pads adjacent to both hubs sit within 2 of everything un-stretched:
  // they never move the diameter off the tip-to-tip pairs.
  for (net::NodeId v = next; v < n; ++v) {
    edges.push_back({ha, v});
    edges.push_back({hb, v});
  }
  graph_ = std::make_shared<net::Graph>(n, std::move(edges));
}

}  // namespace dynet::lb
