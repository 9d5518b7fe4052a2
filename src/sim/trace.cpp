#include "sim/trace.h"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <istream>
#include <limits>
#include <new>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/prof.h"
#include "sim/engine.h"
#include "util/check.h"

namespace dynet::sim {

void writeTrace(std::ostream& out, const Trace& trace) {
  DYNET_PROF("sim/write_trace");
  DYNET_CHECK(trace.num_nodes >= 1) << "empty trace";
  DYNET_CHECK(trace.actions.empty() ||
              trace.actions.size() == trace.topologies.size())
      << "actions/topologies length mismatch";
  out << "dynet-trace v1\n";
  out << "n " << trace.num_nodes << "\n";
  for (std::size_t r = 0; r < trace.topologies.size(); ++r) {
    out << "r " << (r + 1) << "\n";
    for (const net::Edge& e : trace.topologies[r]->edges()) {
      out << "e " << e.a << " " << e.b << "\n";
    }
    if (!trace.actions.empty()) {
      const auto& round_actions = trace.actions[r];
      DYNET_CHECK(static_cast<NodeId>(round_actions.size()) == trace.num_nodes)
          << "round " << r + 1 << " action count";
      for (NodeId v = 0; v < trace.num_nodes; ++v) {
        const Action& a = round_actions[static_cast<std::size_t>(v)];
        if (a.send) {
          out << "s " << v << " " << a.msg.bitSize() << " " << std::hex;
          const int words = (a.msg.bitSize() + 63) / 64;
          for (int w = 0; w < std::max(words, 1); ++w) {
            out << (w > 0 ? "," : "")
                << a.msg.words()[static_cast<std::size_t>(w)];
          }
          out << std::dec << "\n";
        } else {
          out << "q " << v << "\n";
        }
      }
    }
  }
}

namespace {

/// `field` parsed whole as a base-`base` integer in [lo, hi]; nullopt when
/// it is empty, has a character left over, overflows T or leaves the range.
template <typename T>
std::optional<T> parseField(std::string_view field, T lo, T hi,
                            int base = 10) {
  T value{};
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value, base);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

Trace readTrace(std::istream& in) {
  DYNET_PROF("sim/read_trace");
  Trace trace;
  std::string line;
  std::size_t line_no = 1;
  // Every failure names the 1-based line number and the line's text.
  const auto where = [&] {
    return "trace line " + std::to_string(line_no) + " '" + line + "': ";
  };
  DYNET_CHECK(std::getline(in, line) && line == "dynet-trace v1")
      << where() << "bad header (expected 'dynet-trace v1')";
  std::vector<net::Edge> edges;
  std::vector<Action> actions;
  std::vector<bool> listed;  // nodes with an action line this round
  bool in_round = false;
  bool have_actions = false;

  // Runs `allocate`, which builds rows of n entries: n passed its range
  // check but may still be too large for memory, which is then an error
  // naming the line and n instead of a bare std::bad_alloc.
  const auto guardAlloc = [&](auto&& allocate) {
    try {
      allocate();
    } catch (const std::bad_alloc&) {
      DYNET_CHECK(false) << where() << "out of memory for a round of n = "
                         << trace.num_nodes << " nodes";
    }
  };
  const auto resetRows = [&] {
    actions.assign(static_cast<std::size_t>(trace.num_nodes), Action{});
    listed.assign(static_cast<std::size_t>(trace.num_nodes), false);
  };

  // An action trace lists every node exactly once in every round, so
  // trace.actions is empty or holds one entry per round.
  auto flushRound = [&] {
    if (!in_round) {
      return;
    }
    trace.topologies.push_back(
        std::make_shared<net::Graph>(trace.num_nodes, edges));
    edges.clear();
    if (have_actions) {
      // The rounds before the first action line listed no node at all.
      const std::size_t round = trace.actions.size() + 1;
      const auto missing = round == trace.topologies.size()
                               ? std::find(listed.begin(), listed.end(), false)
                               : listed.begin();
      DYNET_CHECK(missing == listed.end())
          << "trace round " << round << " lists no action for node "
          << missing - listed.begin();
      trace.actions.push_back(actions);
    }
    resetRows();
  };

  std::vector<std::string_view> fields;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    fields.clear();
    constexpr const char* kSpace = " \t\r\v\f";  // what operator>> skips
    for (std::size_t pos = line.find_first_not_of(kSpace); pos != line.npos;
         pos = line.find_first_not_of(kSpace, pos)) {
      const std::size_t end = std::min(line.find_first_of(kSpace, pos),
                                       line.size());
      fields.emplace_back(line.data() + pos, end - pos);
      pos = end;
    }
    const std::string_view tag = fields.empty() ? "" : fields[0];
    const auto arity = [&](std::size_t count) {
      DYNET_CHECK(fields.size() == count)
          << where() << "'" << tag << "' takes " << count - 1 << " fields";
    };
    // A node id field of the current trace: an integer in [0, n).
    const auto node = [&](std::size_t i) {
      const std::optional<NodeId> v =
          parseField<NodeId>(fields[i], 0, trace.num_nodes - 1);
      DYNET_CHECK(v.has_value())
          << where() << "bad node '" << fields[i] << "' (need 0.."
          << trace.num_nodes - 1 << ")";
      return *v;
    };
    if (tag == "n") {
      arity(2);
      DYNET_CHECK(trace.num_nodes == 0 && !in_round)
          << where() << "'n' must appear once, before any round";
      const std::optional<NodeId> n = parseField<NodeId>(
          fields[1], 1, std::numeric_limits<NodeId>::max());
      DYNET_CHECK(n.has_value()) << where() << "bad node count";
      trace.num_nodes = *n;
      guardAlloc(resetRows);
    } else if (tag == "r") {
      arity(2);
      DYNET_CHECK(trace.num_nodes > 0) << where() << "round before 'n'";
      const std::optional<Round> r =
          parseField<Round>(fields[1], 1, std::numeric_limits<Round>::max());
      DYNET_CHECK(r.has_value()) << where() << "bad round number";
      guardAlloc(flushRound);
      DYNET_CHECK(*r == static_cast<Round>(trace.topologies.size()) + 1)
          << where() << "non-contiguous round (expected "
          << trace.topologies.size() + 1 << ")";
      in_round = true;
    } else if (tag == "e" || tag == "s" || tag == "q") {
      DYNET_CHECK(in_round) << where() << "'" << tag << "' outside a round";
      if (tag == "e") {
        arity(3);
        const NodeId a = node(1);
        const NodeId b = node(2);
        DYNET_CHECK(a != b) << where() << "self-loop at " << a;
        edges.push_back({a, b});
        continue;
      }
      have_actions = true;
      arity(tag == "q" ? 2 : 4);
      const NodeId v = node(1);
      DYNET_CHECK(!listed[static_cast<std::size_t>(v)])
          << where() << "node " << v << " listed twice in round "
          << trace.topologies.size() + 1;
      listed[static_cast<std::size_t>(v)] = true;
      if (tag == "q") {
        continue;  // actions[v] is already the receive action
      }
      const std::optional<int> bits =
          parseField<int>(fields[2], 0, Message::kCapacityBits);
      DYNET_CHECK(bits.has_value())
          << where() << "bad bit count (need 0.." << Message::kCapacityBits
          << ")";
      // One comma-separated hex word per started 64 bits (one for 0 bits),
      // LSB-first.
      const int words = std::max(1, (*bits + 63) / 64);
      std::string_view payload = fields[3];
      DYNET_CHECK(std::count(payload.begin(), payload.end(), ',') + 1 == words)
          << where() << "payload needs " << words << " hex words";
      MessageBuilder builder;
      for (int w = 0; w < words; ++w) {
        const std::string_view word = payload.substr(0, payload.find(','));
        payload.remove_prefix(std::min(word.size() + 1, payload.size()));
        const std::optional<std::uint64_t> value =
            word.size() <= 16
                ? parseField<std::uint64_t>(word, 0, ~std::uint64_t{0}, 16)
                : std::nullopt;
        DYNET_CHECK(value.has_value())
            << where() << "bad hex word '" << word << "' (1 to 16 digits)";
        const int take = std::min(*bits - 64 * w, 64);
        if (take > 0) {
          builder.put(take < 64 ? *value & ((std::uint64_t{1} << take) - 1)
                                : *value,
                      take);
        }
      }
      Action action;
      action.send = true;
      action.msg = builder.build();
      actions[static_cast<std::size_t>(v)] = action;
    } else {
      DYNET_CHECK(false) << where() << "unknown trace tag '" << tag << "'";
    }
  }
  guardAlloc(flushRound);
  DYNET_CHECK(!trace.topologies.empty()) << "trace has no rounds";
  return trace;
}

Trace traceFromEngine(const Engine& engine) {
  Trace trace;
  trace.num_nodes = engine.numNodes();
  trace.topologies = engine.topologies();
  trace.actions = engine.actionTrace();
  DYNET_CHECK(!trace.topologies.empty())
      << "engine was not run with record_topologies";
  return trace;
}

}  // namespace dynet::sim
