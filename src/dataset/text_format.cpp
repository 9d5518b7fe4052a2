#include "dataset/text_format.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace dynet::dataset {

namespace {

namespace fs = std::filesystem;

// Traces with huge raw time spans and a tiny bucket would compile into a
// deltas vector with one entry per round; refuse early with a hint rather
// than OOM halfway through compile().
constexpr sim::Round kMaxRounds = 5'000'000;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DYNET_CHECK(in.good()) << "cannot open trace file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Splits one line into whitespace-separated tokens, dropping everything
/// from the first '#' (comments).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (c == '#') {
      break;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

double parseTime(const std::string& token, const std::string& name,
                 int line) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  DYNET_CHECK(!token.empty() && end == token.c_str() + token.size() &&
              errno == 0 && std::isfinite(value))
      << name << ":" << line << ": expected a numeric timestamp, got '"
      << token << "'";
  return value;
}

/// First-appearance label compaction shared by both parsers.
struct LabelTable {
  std::unordered_map<std::string, net::NodeId> ids;
  std::vector<std::string> labels;

  net::NodeId intern(const std::string& label) {
    const auto [it, inserted] =
        ids.try_emplace(label, static_cast<net::NodeId>(labels.size()));
    if (inserted) {
      labels.push_back(label);
    }
    return it->second;
  }

  net::NodeId lookup(const std::string& label, const std::string& name,
                     int line) const {
    const auto it = ids.find(label);
    DYNET_CHECK(it != ids.end())
        << name << ":" << line << ": unknown node '" << label
        << "' (never appears in any snapshot)";
    return it->second;
  }
};

net::Edge makeEdge(net::NodeId u, net::NodeId v, const std::string& name,
                   int line, const std::string& ulabel,
                   const std::string& vlabel) {
  DYNET_CHECK(u != v) << name << ":" << line << ": self-loop on node '"
                      << ulabel << "' = '" << vlabel << "'";
  return u < v ? net::Edge{u, v} : net::Edge{v, u};
}

/// Numbered-file index for snapshot dirs: returns sorted indices of files
/// named `<i><suffix>` in `dir`, failing loudly on stray names.
std::vector<int> numberedFiles(const fs::path& dir, const std::string& suffix,
                               const std::string& what) {
  std::vector<int> indices;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string fname = entry.path().filename().string();
    DYNET_CHECK(fname.size() > suffix.size() &&
                fname.substr(fname.size() - suffix.size()) == suffix)
        << what << " dir " << dir.string() << ": unexpected file '" << fname
        << "' (want <index>" << suffix << ")";
    const std::string stem = fname.substr(0, fname.size() - suffix.size());
    errno = 0;
    char* end = nullptr;
    const long index = std::strtol(stem.c_str(), &end, 10);
    DYNET_CHECK(!stem.empty() && end == stem.c_str() + stem.size() &&
                errno == 0 && index >= 1)
        << what << " dir " << dir.string() << ": unexpected file '" << fname
        << "' (want <index>" << suffix << ")";
    indices.push_back(static_cast<int>(index));
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

bool edgePairLess(const std::pair<net::NodeId, net::NodeId>& x,
                  const std::pair<net::NodeId, net::NodeId>& y) {
  return x < y;
}

}  // namespace

bool isTraceDir(const std::string& path) {
  std::error_code ec;
  return fs::is_directory(path, ec);
}

namespace {

std::uint64_t chainFile(std::uint64_t hash, const std::string& rel_name,
                        const std::string& contents) {
  hash = fnv1a64(rel_name, hash);
  hash = fnv1a64(std::string_view("\0", 1), hash);
  hash = fnv1a64(contents, hash);
  return fnv1a64(std::string_view("\0", 1), hash);
}

std::uint64_t dirSourceHash(const fs::path& root) {
  const fs::path sn = root / "sn";
  DYNET_CHECK(fs::is_directory(sn))
      << "trace " << root.string() << ": missing sn/ snapshot directory";
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const int i : numberedFiles(sn, ".edges", "snapshot")) {
    const std::string rel = "sn/" + std::to_string(i) + ".edges";
    hash = chainFile(hash, rel, readFile((root / rel).string()));
  }
  const fs::path diff = root / "diff";
  if (fs::is_directory(diff)) {
    for (const int i : numberedFiles(diff, ".diff", "diff")) {
      const std::string rel = "diff/" + std::to_string(i) + ".diff";
      hash = chainFile(hash, rel, readFile((root / rel).string()));
    }
  }
  return hash;
}

}  // namespace

std::uint64_t sourceHash(const std::string& path) {
  if (isTraceDir(path)) {
    return dirSourceHash(fs::path(path));
  }
  return fnv1a64(readFile(path));
}

TraceEvents parseEventList(std::istream& in, const std::string& name,
                           const ParseOptions& options) {
  DYNET_CHECK(options.bucket > 0.0)
      << "trace " << name << ": bucket width must be > 0, got "
      << options.bucket;
  std::ostringstream raw_stream;
  raw_stream << in.rdbuf();
  const std::string raw = raw_stream.str();

  struct Record {
    int line;
    double start;
    double end;
    net::NodeId u;
    net::NodeId v;
  };
  std::vector<Record> records;
  LabelTable table;
  double t_min = 0.0;
  bool have_t_min = false;

  int line_no = 0;
  std::istringstream lines(raw);
  std::string line;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    DYNET_CHECK(tokens.size() == 4)
        << name << ":" << line_no << ": expected 'start end u v', got "
        << tokens.size() << " field(s) in '" << line << "'";
    const double start = parseTime(tokens[0], name, line_no);
    const double end = parseTime(tokens[1], name, line_no);
    DYNET_CHECK(end >= start)
        << name << ":" << line_no << ": interval ends (" << end
        << ") before it starts (" << start << ")";
    const net::NodeId u = table.intern(tokens[2]);
    const net::NodeId v = table.intern(tokens[3]);
    makeEdge(u, v, name, line_no, tokens[2], tokens[3]);
    records.push_back({line_no, start, end, u, v});
    if (!have_t_min || start < t_min) {
      t_min = start;
      have_t_min = true;
    }
  }
  DYNET_CHECK(!records.empty())
      << "trace " << name << ": no events (only blank/comment lines)";

  TraceEvents events;
  events.num_nodes = static_cast<net::NodeId>(table.labels.size());
  events.labels = std::move(table.labels);
  events.source = name;
  events.source_hash = fnv1a64(raw);
  events.bucket = options.bucket;
  events.intervals.reserve(records.size());
  for (const Record& rec : records) {
    // A round stays a double until it is known to fit: past INT32_MAX the
    // narrowing cast would be undefined.  t_min <= start <= end, so the
    // first round lies in [1, last].
    const auto bucketOf = [&](double t) {
      return std::floor((t - t_min) / options.bucket) + 1;
    };
    const double last = bucketOf(rec.end);
    DYNET_CHECK(last <= kMaxRounds)
        << name << ":" << rec.line << ": event maps to round "
        << std::setprecision(15) << last << " > " << kMaxRounds
        << "; raw time span too wide for bucket width " << options.bucket
        << " (pass a larger --trace-bucket)";
    EdgeInterval iv;
    iv.edge = rec.u < rec.v ? net::Edge{rec.u, rec.v}
                            : net::Edge{rec.v, rec.u};
    iv.first = static_cast<sim::Round>(bucketOf(rec.start));
    iv.last = static_cast<sim::Round>(last);
    events.intervals.push_back(iv);
    events.rounds = std::max(events.rounds, iv.last);
  }
  return events;
}

TraceEvents parseEventListFile(const std::string& path,
                               const ParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  DYNET_CHECK(in.good()) << "cannot open trace file " << path;
  return parseEventList(in, path, options);
}

TraceEvents parseSnapshotDir(const std::string& dir) {
  const fs::path root(dir);
  DYNET_CHECK(fs::is_directory(root))
      << "trace " << dir << ": not a directory";
  const fs::path sn = root / "sn";
  DYNET_CHECK(fs::is_directory(sn))
      << "trace " << dir << ": missing sn/ snapshot directory";

  const std::vector<int> sn_indices = numberedFiles(sn, ".edges", "snapshot");
  DYNET_CHECK(!sn_indices.empty())
      << "trace " << dir << ": sn/ contains no <i>.edges snapshots";
  for (std::size_t i = 0; i < sn_indices.size(); ++i) {
    DYNET_CHECK(sn_indices[i] == static_cast<int>(i) + 1)
        << "trace " << dir << ": snapshots must be numbered 1..N "
        << "consecutively; missing sn/" << i + 1 << ".edges";
  }
  const int num_snapshots = static_cast<int>(sn_indices.size());

  LabelTable table;
  using EdgeSet =
      std::set<std::pair<net::NodeId, net::NodeId>, decltype(&edgePairLess)>;
  std::vector<EdgeSet> snapshots;

  for (int i = 1; i <= num_snapshots; ++i) {
    const std::string path =
        (sn / (std::to_string(i) + ".edges")).string();
    const std::string raw = readFile(path);
    EdgeSet edges(&edgePairLess);
    int line_no = 0;
    std::istringstream lines(raw);
    std::string line;
    while (std::getline(lines, line)) {
      ++line_no;
      const std::vector<std::string> tokens = tokenize(line);
      if (tokens.empty()) {
        continue;
      }
      DYNET_CHECK(tokens.size() == 2)
          << path << ":" << line_no << ": expected 'u v', got "
          << tokens.size() << " field(s) in '" << line << "'";
      const net::NodeId u = table.intern(tokens[0]);
      const net::NodeId v = table.intern(tokens[1]);
      const net::Edge e = makeEdge(u, v, path, line_no, tokens[0], tokens[1]);
      const bool inserted = edges.emplace(e.a, e.b).second;
      DYNET_CHECK(inserted)
          << path << ":" << line_no << ": duplicate edge '" << tokens[0]
          << " " << tokens[1] << "'";
    }
    snapshots.push_back(std::move(edges));
  }

  // Optional diff files: validated against the snapshot pair, never used
  // as the source of truth.  A diff that disagrees with its snapshots is a
  // corrupt dataset and must stop the run.
  const fs::path diff = root / "diff";
  if (fs::is_directory(diff)) {
    for (const int i : numberedFiles(diff, ".diff", "diff")) {
      DYNET_CHECK(i >= 2 && i <= num_snapshots)
          << "trace " << dir << ": diff/" << i << ".diff has no snapshot "
          << "pair (snapshots run 1.." << num_snapshots << ")";
      const std::string path = (diff / (std::to_string(i) + ".diff")).string();
      const std::string raw = readFile(path);
      EdgeSet patched = snapshots[static_cast<std::size_t>(i) - 2];
      int line_no = 0;
      std::istringstream lines(raw);
      std::string line;
      while (std::getline(lines, line)) {
        ++line_no;
        const std::vector<std::string> tokens = tokenize(line);
        if (tokens.empty()) {
          continue;
        }
        DYNET_CHECK(tokens.size() == 3 &&
                    (tokens[0] == "+" || tokens[0] == "-"))
            << path << ":" << line_no << ": expected '+ u v' or '- u v', "
            << "got '" << line << "'";
        const net::NodeId u = table.lookup(tokens[1], path, line_no);
        const net::NodeId v = table.lookup(tokens[2], path, line_no);
        const net::Edge e =
            makeEdge(u, v, path, line_no, tokens[1], tokens[2]);
        if (tokens[0] == "+") {
          DYNET_CHECK(patched.emplace(e.a, e.b).second)
              << path << ":" << line_no << ": '+' for edge already present "
              << "in snapshot " << i - 1;
        } else {
          DYNET_CHECK(patched.erase({e.a, e.b}) == 1)
              << path << ":" << line_no << ": '-' for edge absent from "
              << "snapshot " << i - 1;
        }
      }
      DYNET_CHECK(patched == snapshots[static_cast<std::size_t>(i) - 1])
          << path << ": applying diff to snapshot " << i - 1
          << " does not reproduce snapshot " << i
          << " (dataset is internally inconsistent)";
    }
  }

  TraceEvents events;
  events.num_nodes = static_cast<net::NodeId>(table.labels.size());
  events.labels = std::move(table.labels);
  events.rounds = num_snapshots;
  events.source = dir;
  events.source_hash = sourceHash(dir);
  events.bucket = 1.0;
  for (int i = 1; i <= num_snapshots; ++i) {
    for (const auto& [a, b] : snapshots[static_cast<std::size_t>(i) - 1]) {
      events.intervals.push_back({{a, b}, i, i});
    }
  }
  DYNET_CHECK(events.num_nodes >= 1)
      << "trace " << dir << ": snapshots name no nodes";
  return events;
}

void writeEventList(std::ostream& out, const CompiledTrace& trace) {
  const auto label = [&](net::NodeId v) {
    return trace.labels.empty() ? std::to_string(v)
                                : trace.labels[static_cast<std::size_t>(v)];
  };
  // Event-list text anchors time at the earliest event, so a trace whose
  // first round has no edges would shift on re-parse.
  DYNET_CHECK(!trace.initial.empty())
      << "trace " << trace.source
      << ": cannot render an empty first round as event-list text";
  // Replay the timeline, recording each edge's activity start so removals
  // close an interval; still-open intervals close at the final round.
  std::map<std::pair<net::NodeId, net::NodeId>, sim::Round> open;
  struct Interval {
    sim::Round first;
    sim::Round last;
    net::Edge edge;
  };
  std::vector<Interval> intervals;
  for (const net::Edge& e : trace.initial) {
    open[{e.a, e.b}] = 1;
  }
  for (sim::Round r = 2; r <= trace.rounds; ++r) {
    const RoundDelta& d = trace.deltas[static_cast<std::size_t>(r) - 2];
    for (const net::Edge& e : d.removed) {
      const auto it = open.find({e.a, e.b});
      DYNET_CHECK(it != open.end())
          << "trace " << trace.source << " round " << r
          << ": removal of inactive edge (" << e.a << "," << e.b << ")";
      intervals.push_back({it->second, r - 1, e});
      open.erase(it);
    }
    for (const net::Edge& e : d.added) {
      const bool inserted = open.emplace(std::pair{e.a, e.b}, r).second;
      DYNET_CHECK(inserted) << "trace " << trace.source << " round " << r
                            << ": duplicate add of (" << e.a << "," << e.b
                            << ")";
    }
  }
  for (const auto& [pair, first] : open) {
    intervals.push_back({first, trace.rounds, {pair.first, pair.second}});
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& x, const Interval& y) {
              return std::tie(x.first, x.last, x.edge.a, x.edge.b) <
                     std::tie(y.first, y.last, y.edge.a, y.edge.b);
            });
  for (const Interval& iv : intervals) {
    out << iv.first << ' ' << iv.last << ' ' << label(iv.edge.a) << ' '
        << label(iv.edge.b) << '\n';
  }
}

}  // namespace dynet::dataset
