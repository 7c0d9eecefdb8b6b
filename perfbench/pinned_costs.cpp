// The pinned cost table.
//
// core::MeasuredCostModel times the real codecs when it is constructed, so
// two runs of the simulator on one seed can simulate different work. The
// simulator workloads therefore read a committed table instead: one line
// per (wire format, message kind) with the service time and encoded size
// the measured model reported, plus one "state" line per format for the
// checkpoint payload. The file is plain text:
//
//   # comment
//   <format slug> TAB <MsgKind name | state> TAB <ns> TAB <bytes>
//
// Capture a new table with `perfbench --capture-table PATH` (it builds a
// MeasuredCostModel once and reads it back through its public accessors).
#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/hashing.hpp"

namespace neutrino::perfbench {
namespace {

constexpr std::string_view kHeader =
    "# perfbench pinned cost table: format, kind, processing_ns, "
    "encoded_bytes\n";

std::vector<std::string_view> split_tabs(std::string_view line) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t tab = line.find('\t');
    out.push_back(line.substr(0, tab));
    if (tab == std::string_view::npos) break;
    line.remove_prefix(tab + 1);
  }
  return out;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 18) return false;  // fits std::int64_t
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

}  // namespace

std::string_view format_slug(ser::WireFormat f) {
  switch (f) {
    case ser::WireFormat::kAsn1Per: return "asn1per";
    case ser::WireFormat::kFlatBuffers: return "flatbuf";
    case ser::WireFormat::kOptimizedFlatBuffers: return "flatbuf_opt";
    case ser::WireFormat::kProtobuf: return "protobuf";
    case ser::WireFormat::kFastCdr: return "fastcdr";
    case ser::WireFormat::kLcm: return "lcm";
    case ser::WireFormat::kFlexBuffers: return "flexbuf";
  }
  return "unknown";
}

bool PinnedCostModel::parse(std::string_view text, std::string& error) {
  std::vector<Entry> kinds(kFormats * kKinds);
  std::vector<Entry> states(kFormats);
  std::vector<bool> seen(kFormats * (kKinds + 1), false);
  std::size_t line_no = 0;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    const auto fields = split_tabs(line);
    const std::string where = "line " + std::to_string(line_no) + ": ";
    if (fields.size() != 4) {
      error = where + "expected 4 tab-separated fields";
      return false;
    }
    std::size_t f = kFormats;
    for (std::size_t i = 0; i < kFormats; ++i) {
      if (format_slug(ser::kAllWireFormats[i]) == fields[0]) f = i;
    }
    std::size_t k = kKinds;  // kKinds stands for the "state" row
    if (fields[1] != "state") {
      k = kKinds + 1;
      for (std::size_t i = 0; i < kKinds; ++i) {
        if (core::to_string(static_cast<core::MsgKind>(i)) == fields[1]) k = i;
      }
    }
    std::uint64_t ns = 0;
    std::uint64_t bytes = 0;
    if (f == kFormats || k > kKinds || !parse_u64(fields[2], ns) ||
        !parse_u64(fields[3], bytes)) {
      error = where + "unknown format or kind, or a non-numeric cost";
      return false;
    }
    const std::size_t slot = f * (kKinds + 1) + k;
    if (seen[slot]) {
      error = where + "duplicate entry";
      return false;
    }
    seen[slot] = true;
    const Entry e{static_cast<std::int64_t>(ns), bytes};
    if (k == kKinds) {
      states[f] = e;
    } else {
      kinds[f * kKinds + k] = e;
    }
  }
  for (std::size_t slot = 0; slot < seen.size(); ++slot) {
    if (!seen[slot]) {
      error = "missing entry for format " +
              std::string(format_slug(ser::kAllWireFormats[slot /
                                                           (kKinds + 1)])) +
              ", kind #" + std::to_string(slot % (kKinds + 1));
      return false;
    }
  }
  kinds_ = std::move(kinds);
  states_ = std::move(states);
  return true;
}

bool PinnedCostModel::load(const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read cost table " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), error);
}

PinnedCostModel PinnedCostModel::capture(const core::CostModel& model) {
  PinnedCostModel out;
  for (std::size_t f = 0; f < kFormats; ++f) {
    const ser::WireFormat format = ser::kAllWireFormats[f];
    for (std::size_t k = 0; k < kKinds; ++k) {
      const auto kind = static_cast<core::MsgKind>(k);
      out.kinds_[f * kKinds + k] = {
          model.processing_time(format, kind).ns(),
          static_cast<std::uint64_t>(model.encoded_size(format, kind))};
    }
    out.states_[f] = {
        model.state_serialize_time(format).ns(),
        static_cast<std::uint64_t>(model.state_encoded_size(format))};
  }
  return out;
}

std::string PinnedCostModel::to_text() const {
  std::string out(kHeader);
  char line[160];
  for (std::size_t f = 0; f < kFormats; ++f) {
    const std::string_view slug = format_slug(ser::kAllWireFormats[f]);
    for (std::size_t k = 0; k <= kKinds; ++k) {
      const bool state = k == kKinds;
      const Entry& e = state ? states_[f] : kinds_[f * kKinds + k];
      const std::string_view kind =
          state ? std::string_view("state")
                : core::to_string(static_cast<core::MsgKind>(k));
      std::snprintf(line, sizeof line, "%.*s\t%.*s\t%" PRId64 "\t%" PRIu64 "\n",
                    static_cast<int>(slug.size()), slug.data(),
                    static_cast<int>(kind.size()), kind.data(), e.ns, e.bytes);
      out += line;
    }
  }
  return out;
}

std::string PinnedCostModel::hash() const {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, fnv1a64(to_text()));
  return hex;
}

const PinnedCostModel::Entry& PinnedCostModel::entry(ser::WireFormat f,
                                                     core::MsgKind k) const {
  const auto fi = static_cast<std::size_t>(f);
  const auto ki = static_cast<std::size_t>(k);
  if (fi >= kFormats || ki >= kKinds) {
    std::fprintf(stderr, "perfbench: cost table has no entry for format %zu, "
                         "kind %zu\n", fi, ki);
    std::abort();
  }
  return kinds_[fi * kKinds + ki];
}

SimTime PinnedCostModel::processing_time(ser::WireFormat format,
                                         core::MsgKind kind) const {
  return SimTime::nanoseconds(entry(format, kind).ns);
}

std::size_t PinnedCostModel::encoded_size(ser::WireFormat format,
                                          core::MsgKind kind) const {
  return static_cast<std::size_t>(entry(format, kind).bytes);
}

SimTime PinnedCostModel::state_serialize_time(ser::WireFormat format) const {
  return SimTime::nanoseconds(states_[static_cast<std::size_t>(format)].ns);
}

std::size_t PinnedCostModel::state_encoded_size(ser::WireFormat format) const {
  return static_cast<std::size_t>(
      states_[static_cast<std::size_t>(format)].bytes);
}

}  // namespace neutrino::perfbench
