#include "common/provenance.hpp"

#include "common/json.hpp"

namespace lumos {

std::string build_compiler() {
#if defined(__clang__)
  const char* id = "clang";
#elif defined(__GNUC__)
  const char* id = "gcc";
#else
  const char* id = "unknown";
#endif
#if defined(__VERSION__)
  return std::string(id) + " " + __VERSION__;
#else
  return id;
#endif
}

std::string build_type() {
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

void write_provenance(JsonWriter& w, std::size_t threads) {
  w.begin_object("provenance")
      .field("schema_version", kBenchSchemaVersion)
      .field("compiler", build_compiler())
      .field("build_type", build_type())
      .field("threads", threads)
      .end();
}

}  // namespace lumos
