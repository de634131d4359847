#pragma once

#include <iosfwd>
#include <string>

#include "xaon/uarch/trace.hpp"

/// \file trace_io.hpp
/// Binary trace serialization.
///
/// Captured traces are expensive to regenerate (they run the whole
/// instrumented stack); saving them lets experiments, regression checks
/// and the trace_inspector example replay identical instruction streams
/// across processes and machines. The format is a fixed little-endian
/// layout with a magic/version header and a length field — no host
/// struct dumping, so files are portable. A record keeps 64-bit address
/// fields on disk although `Op` holds 32-bit ones.

namespace xaon::uarch {

inline constexpr char kTraceMagic[8] = {'X', 'A', 'O', 'N',
                                        'T', 'R', 'C', '1'};

/// Writes `trace` to `out`. Returns false on stream failure.
bool save_trace(const Trace& trace, std::ostream& out);

/// Convenience: writes to `path` (overwrites). Returns false on any
/// I/O failure.
bool save_trace(const Trace& trace, const std::string& path);

struct TraceLoadResult {
  Trace trace;
  std::string error;
  bool ok = false;

  explicit operator bool() const { return ok; }
};

/// Reads a trace written by save_trace. Validates magic, version,
/// op-kind ranges and that every address fits the 32-bit simulated
/// address space; a corrupt or truncated file yields ok=false with a
/// diagnostic, never a partially-valid trace.
TraceLoadResult load_trace(std::istream& in);
TraceLoadResult load_trace(const std::string& path);

}  // namespace xaon::uarch
