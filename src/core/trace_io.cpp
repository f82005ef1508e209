#include "core/trace_io.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace mhm {

namespace {

constexpr char kTraceMagic[4] = {'M', 'H', 'M', 'T'};
constexpr std::uint32_t kTraceVersion = 1;
constexpr std::uint64_t kSanityLimit = 1ull << 28;

void write_u32(std::ostream& out, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw SerializationError("trace_io: truncated stream (u32)");
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw SerializationError("trace_io: truncated stream (u64)");
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace

void save_trace(const RecordedTrace& trace, std::ostream& out) {
  trace.config.validate();
  const std::size_t cells = trace.config.cell_count();
  for (const auto& map : trace.maps) {
    if (map.cell_count() != cells) {
      throw SerializationError(
          "trace_io: map cell count does not match the trace config");
    }
  }
  out.write(kTraceMagic, sizeof kTraceMagic);
  write_u32(out, kTraceVersion);
  write_u64(out, trace.config.base);
  write_u64(out, trace.config.size);
  write_u64(out, trace.config.granularity);
  write_u64(out, trace.config.interval);
  write_u64(out, trace.maps.size());
  for (const auto& map : trace.maps) {
    write_u64(out, map.interval_index);
    write_u64(out, map.interval_start);
    for (std::uint32_t c : map.counts()) write_u32(out, c);
  }
  if (!out) throw SerializationError("trace_io: write failure");
}

RecordedTrace load_trace(std::istream& in) {
  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kTraceMagic, sizeof kTraceMagic) != 0) {
    throw SerializationError("trace_io: bad magic (not an MHM trace file)");
  }
  const std::uint32_t version = read_u32(in);
  if (version != kTraceVersion) {
    throw SerializationError("trace_io: unsupported version " +
                             std::to_string(version));
  }
  RecordedTrace trace;
  trace.config.base = read_u64(in);
  trace.config.size = read_u64(in);
  trace.config.granularity = read_u64(in);
  trace.config.interval = read_u64(in);
  try {
    trace.config.validate();
  } catch (const ConfigError& e) {
    throw SerializationError(std::string("trace_io: invalid config: ") +
                             e.what());
  }
  const std::uint64_t count = read_u64(in);
  const std::size_t cells = trace.config.cell_count();
  if (count > kSanityLimit || cells > kSanityLimit ||
      count * cells > kSanityLimit) {
    throw SerializationError("trace_io: implausible trace size");
  }
  // Reserve no more maps than the rest of the stream can hold (16 + 4·cells
  // bytes each): an inflated count then fails on the truncated read instead
  // of allocating for its claim. A stream that cannot seek grows as read.
  if (const std::streampos here = in.tellg(); here != std::streampos(-1)) {
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.clear();
    in.seekg(here);
    if (end > here) {
      trace.maps.reserve(std::min<std::uint64_t>(
          count, static_cast<std::uint64_t>(end - here) / (16 + 4 * cells)));
    }
  }
  for (std::uint64_t m = 0; m < count; ++m) {
    HeatMap map(cells);
    map.interval_index = read_u64(in);
    map.interval_start = read_u64(in);
    for (std::size_t c = 0; c < cells; ++c) {
      const std::uint32_t v = read_u32(in);
      if (v > 0) map.increment(c, v);
    }
    trace.maps.push_back(std::move(map));
  }
  return trace;
}

void save_trace_file(const RecordedTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("save_trace_file: cannot open " + path);
  save_trace(trace, out);
}

RecordedTrace load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("load_trace_file: cannot open " + path);
  return load_trace(in);
}

}  // namespace mhm
