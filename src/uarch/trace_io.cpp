#include "xaon/uarch/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace xaon::uarch {

namespace {

void put_u64(std::ostream& out, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  out.write(reinterpret_cast<const char*>(bytes), 8);
}

bool get_u64(std::istream& in, std::uint64_t* v) {
  unsigned char bytes[8];
  if (!in.read(reinterpret_cast<char*>(bytes), 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return true;
}

}  // namespace

bool save_trace(const Trace& trace, std::ostream& out) {
  out.write(kTraceMagic, sizeof(kTraceMagic));
  put_u64(out, trace.size());
  for (const Op& op : trace) {
    put_u64(out, op.pc);
    put_u64(out, op.addr);
    // kind(1) | size(1) | taken(1) | pad(5)
    unsigned char meta[8] = {};
    meta[0] = static_cast<unsigned char>(op.kind);
    meta[1] = op.size;
    meta[2] = op.taken ? 1 : 0;
    out.write(reinterpret_cast<const char*>(meta), 8);
  }
  return static_cast<bool>(out);
}

bool save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  return save_trace(trace, out);
}

TraceLoadResult load_trace(std::istream& in) {
  TraceLoadResult result;
  char magic[sizeof(kTraceMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0) {
    result.error = "bad magic: not a xaon trace file (or wrong version)";
    return result;
  }
  std::uint64_t count = 0;
  if (!get_u64(in, &count)) {
    result.error = "truncated header";
    return result;
  }
  // Sanity bound: an on-disk record is 24 bytes; refuse absurd counts
  // rather than attempting a 2^60-element reserve on a corrupt file.
  constexpr std::uint64_t kMaxOps = 1ull << 32;
  if (count > kMaxOps) {
    result.error = "implausible op count (corrupt header)";
    return result;
  }
  result.trace.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t pc = 0;
    std::uint64_t addr = 0;
    unsigned char meta[8];
    if (!get_u64(in, &pc) || !get_u64(in, &addr) ||
        !in.read(reinterpret_cast<char*>(meta), 8)) {
      result.error = "truncated at op " + std::to_string(i);
      result.trace.clear();
      return result;
    }
    if (pc >= kAddressSpaceBytes || addr >= kAddressSpaceBytes) {
      result.error = "address above 4 GiB at op " + std::to_string(i);
      result.trace.clear();
      return result;
    }
    if (meta[0] > static_cast<unsigned char>(OpKind::kBranch)) {
      result.error = "invalid op kind at op " + std::to_string(i);
      result.trace.clear();
      return result;
    }
    Op op;
    op.pc = static_cast<std::uint32_t>(pc);
    op.addr = static_cast<std::uint32_t>(addr);
    op.kind = static_cast<OpKind>(meta[0]);
    op.size = meta[1];
    op.taken = meta[2] != 0;
    result.trace.push_back(op);
  }
  result.ok = true;
  return result;
}

TraceLoadResult load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    TraceLoadResult result;
    result.error = "cannot open '" + path + "'";
    return result;
  }
  return load_trace(in);
}

}  // namespace xaon::uarch
