#include "dataset/compiled_format.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "util/check.h"

namespace dynet::dataset {

namespace {

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void putEdges(std::string& out, const std::vector<net::Edge>& edges) {
  putU32(out, static_cast<std::uint32_t>(edges.size()));
  for (const net::Edge& e : edges) {
    putU32(out, static_cast<std::uint32_t>(e.a));
    putU32(out, static_cast<std::uint32_t>(e.b));
  }
}

/// Offset-tracked reader; every under-read names the file and byte offset.
class ByteReader {
 public:
  ByteReader(const std::string& bytes, const std::string& name)
      : bytes_(bytes), name_(name) {}

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return bytes_.size() - offset_; }

  void need(std::size_t n, const char* what) const {
    DYNET_CHECK(remaining() >= n)
        << "trace cache " << name_ << ": truncated at byte " << offset_
        << " (need " << n << " byte(s) for " << what << ", have "
        << remaining() << ")";
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 4;
    return v;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 8;
    return v;
  }

  std::string str(std::size_t n, const char* what) {
    need(n, what);
    std::string s = bytes_.substr(offset_, n);
    offset_ += n;
    return s;
  }

  std::vector<net::Edge> edges(net::NodeId n, const char* what) {
    const std::uint32_t count = u32(what);
    // An untrusted count must fit in the bytes left before it sizes an
    // allocation: 8 bytes per edge.
    DYNET_CHECK(count <= remaining() / 8)
        << "trace cache " << name_ << ": " << what << " count " << count
        << " at byte " << offset_ - 4 << " needs "
        << std::uint64_t{count} * 8 << " byte(s), only " << remaining()
        << " left";
    std::vector<net::Edge> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto a = static_cast<net::NodeId>(u32(what));
      const auto b = static_cast<net::NodeId>(u32(what));
      DYNET_CHECK(a >= 0 && a < b && b < n)
          << "trace cache " << name_ << ": corrupt edge (" << a << "," << b
          << ") at byte " << offset_ - 8 << ", n=" << n;
      out.push_back({a, b});
    }
    return out;
  }

 private:
  const std::string& bytes_;
  const std::string& name_;
  std::size_t offset_ = 0;
};

std::string readFileBytes(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  DYNET_CHECK(in.good()) << "cannot open " << what << " " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string serializeTrace(const CompiledTrace& trace) {
  std::string out;
  putU32(out, kCompiledVersion);
  putU64(out, std::bit_cast<std::uint64_t>(trace.bucket));
  putU64(out, trace.source_hash);
  putU32(out, static_cast<std::uint32_t>(trace.num_nodes));
  putU32(out, static_cast<std::uint32_t>(trace.rounds));
  putU32(out, static_cast<std::uint32_t>(trace.labels.size()));
  for (const std::string& label : trace.labels) {
    putU32(out, static_cast<std::uint32_t>(label.size()));
    out += label;
  }
  putEdges(out, trace.initial);
  for (const RoundDelta& d : trace.deltas) {
    putEdges(out, d.removed);
    putEdges(out, d.added);
  }
  return out;
}

std::uint64_t contentHash(const CompiledTrace& trace) {
  return fnv1a64(serializeTrace(trace));
}

CompiledTrace parseCompiled(const std::string& bytes,
                            const std::string& name) {
  DYNET_CHECK(bytes.size() >= sizeof(kCompiledMagic) + 8)
      << "trace cache " << name << ": only " << bytes.size()
      << " byte(s), shorter than magic + trailing hash";
  DYNET_CHECK(std::memcmp(bytes.data(), kCompiledMagic,
                          sizeof(kCompiledMagic)) == 0)
      << "trace cache " << name << ": bad magic at byte 0 (not a .dtc file)";

  // Verify the trailing payload hash before trusting any field: a torn
  // tail must be one loud error, not a mid-parse truncation message.
  const std::size_t payload_begin = sizeof(kCompiledMagic);
  const std::size_t payload_end = bytes.size() - 8;
  const std::string_view payload(bytes.data() + payload_begin,
                                 payload_end - payload_begin);
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[payload_end + i]))
              << (8 * i);
  }
  const std::uint64_t computed = fnv1a64(payload);
  DYNET_CHECK(stored == computed)
      << "trace cache " << name << ": payload hash mismatch at byte "
      << payload_end << " (stored " << stored << ", computed " << computed
      << ") — torn or corrupt cache; delete it and recompile";

  const std::string body(payload);
  ByteReader r(body, name);
  const std::uint32_t version = r.u32("version");
  DYNET_CHECK(version == kCompiledVersion)
      << "trace cache " << name << ": version " << version
      << " unsupported (this build reads version " << kCompiledVersion
      << "); recompile the trace";

  CompiledTrace trace;
  trace.bucket = std::bit_cast<double>(r.u64("bucket"));
  trace.source_hash = r.u64("source hash");
  trace.num_nodes = static_cast<net::NodeId>(r.u32("node count"));
  trace.rounds = static_cast<sim::Round>(r.u32("round count"));
  DYNET_CHECK(trace.num_nodes >= 1 && trace.rounds >= 1)
      << "trace cache " << name << ": corrupt header (n=" << trace.num_nodes
      << ", rounds=" << trace.rounds << ")";
  const std::uint32_t label_count = r.u32("label count");
  DYNET_CHECK(label_count == 0 ||
              label_count == static_cast<std::uint32_t>(trace.num_nodes))
      << "trace cache " << name << ": label count " << label_count
      << " disagrees with node count " << trace.num_nodes;
  DYNET_CHECK(label_count <= r.remaining() / 4)
      << "trace cache " << name << ": label count " << label_count
      << " needs at least " << std::uint64_t{label_count} * 4
      << " byte(s) at byte " << r.offset() << ", only " << r.remaining()
      << " left";
  trace.labels.reserve(label_count);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    const std::uint32_t len = r.u32("label length");
    trace.labels.push_back(r.str(len, "label bytes"));
  }
  trace.initial = r.edges(trace.num_nodes, "initial edges");
  // Every delta carries two 4-byte counts, so the round count is bounded
  // by the bytes left before it sizes an allocation.
  const auto delta_count = static_cast<std::size_t>(trace.rounds) - 1;
  DYNET_CHECK(delta_count <= r.remaining() / 8)
      << "trace cache " << name << ": round count " << trace.rounds
      << " needs at least " << delta_count * 8
      << " byte(s) of delta counts at byte " << r.offset() << ", only "
      << r.remaining() << " left";
  trace.deltas.reserve(delta_count);
  for (sim::Round round = 2; round <= trace.rounds; ++round) {
    RoundDelta d;
    d.removed = r.edges(trace.num_nodes, "removed edges");
    d.added = r.edges(trace.num_nodes, "added edges");
    trace.deltas.push_back(std::move(d));
  }
  DYNET_CHECK(r.remaining() == 0)
      << "trace cache " << name << ": " << r.remaining()
      << " trailing byte(s) after round " << trace.rounds << " at byte "
      << r.offset();
  trace.source = name;
  return trace;
}

void writeCompiledFile(const std::string& path, const CompiledTrace& trace) {
  const std::string payload = serializeTrace(trace);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DYNET_CHECK(out.good()) << "cannot open trace cache " << path
                          << " for writing";
  out.write(kCompiledMagic, sizeof(kCompiledMagic));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::string tail;
  putU64(tail, fnv1a64(payload));
  out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  out.flush();
  DYNET_CHECK(out.good()) << "short write to trace cache " << path;
}

CompiledTrace readCompiledFile(const std::string& path) {
  return parseCompiled(readFileBytes(path, "trace cache"), path);
}

bool isCompiledFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return false;
  }
  char magic[sizeof(kCompiledMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kCompiledMagic, sizeof(magic)) == 0;
}

LoadedTrace loadTrace(const std::string& path, const LoadOptions& options) {
  LoadedTrace loaded;
  if (!isTraceDir(path) && isCompiledFile(path)) {
    loaded.trace =
        std::make_shared<const CompiledTrace>(readCompiledFile(path));
    loaded.from_cache = true;
    return loaded;
  }

  // Text source: the freshness check hashes raw bytes only — the whole
  // point of the cache is skipping the parse.
  const bool is_dir = isTraceDir(path);
  const double bucket = is_dir ? 1.0 : options.bucket;
  loaded.cache_path = path + ".dtc";
  if (options.use_cache && isCompiledFile(loaded.cache_path)) {
    CompiledTrace cached = readCompiledFile(loaded.cache_path);
    if (cached.source_hash == sourceHash(path) && cached.bucket == bucket) {
      loaded.trace = std::make_shared<const CompiledTrace>(std::move(cached));
      loaded.from_cache = true;
      return loaded;
    }
  }
  CompiledTrace compiled =
      compile(is_dir ? parseSnapshotDir(path)
                     : parseEventListFile(path, {.bucket = options.bucket}));
  if (options.write_cache) {
    try {
      writeCompiledFile(loaded.cache_path, compiled);
    } catch (const util::CheckError&) {
      // Read-only dataset dir: serve the parse, skip the cache.
    }
  }
  loaded.trace = std::make_shared<const CompiledTrace>(std::move(compiled));
  return loaded;
}

std::shared_ptr<const CompiledTrace> loadTraceShared(
    const std::string& path, const LoadOptions& options) {
  static std::mutex mutex;
  static std::map<std::pair<std::string, double>,
                  std::shared_ptr<const CompiledTrace>>
      cache;
  const std::pair<std::string, double> key{path, options.bucket};
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, loadTrace(path, options).trace).first;
  }
  return it->second;
}

}  // namespace dynet::dataset
