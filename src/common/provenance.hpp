// Build/run provenance stamped into every bench JSON, so a committed baseline
// records *what produced it* (compiler, build type, thread count) next to its
// numbers.  `tools/bench_check.py` ignores the provenance object when
// diffing — it is context for humans debugging a drifted baseline, never a
// gated value.
#pragma once

#include <cstddef>
#include <string>

namespace lumos {

class JsonWriter;

// Version of the bench JSON schema; bump when a bench emitter changes its
// field layout so stale baselines are recognisable at a glance.
inline constexpr int kBenchSchemaVersion = 2;

// Compiler identity of this build ("gcc 13.2.0 ..." / "clang ..."), from the
// compiler's own version macros.
[[nodiscard]] std::string build_compiler();

// "release" (NDEBUG) or "debug".
[[nodiscard]] std::string build_type();

// Writes the `provenance` member of the enclosing JSON object: schema
// version, compiler, build type, and the effective worker-thread count
// (`threads` — pass ThreadPool::global().thread_count()).
void write_provenance(JsonWriter& w, std::size_t threads);

}  // namespace lumos
