#include "common/json.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace lumos {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

JsonWriter& JsonWriter::open(char bracket, std::string_view key) {
  separate(/*container=*/true, key);
  os_ << bracket;
  const bool object = bracket == '{';
  levels_.push_back({object ? '}' : ']', object && levels_.empty(), true, std::string(key)});
  return *this;
}

JsonWriter& JsonWriter::end() {
  LUMOS_EXPECTS_MSG(!levels_.empty(), "no open JSON container to end");
  const Level level = std::move(levels_.back());
  levels_.pop_back();
  if (level.one_per_line && !level.empty) os_ << '\n' << std::string(2 * levels_.size(), ' ');
  os_ << level.close;
  if (levels_.empty()) os_ << '\n';
  return *this;
}

void JsonWriter::separate(bool container, std::string_view key) {
  if (levels_.empty()) {
    LUMOS_EXPECTS_MSG(container && key.empty(), "a JSON document is one object or array");
    return;
  }
  Level& top = levels_.back();
  LUMOS_EXPECTS_MSG(key.empty() == (top.close == ']'),
                    "object members take a key, array elements none");
  if (top.empty && top.close == ']') top.one_per_line = container;
  if (!top.empty) os_ << (top.one_per_line ? "," : ", ");
  if (top.one_per_line) os_ << '\n' << std::string(2 * levels_.size(), ' ');
  top.empty = false;
  if (!key.empty()) os_ << '"' << json_escape(key) << "\": ";
}

void JsonWriter::put_double(double value, std::string_view key) {
  if (!std::isfinite(value)) {
    throw InvalidArgument("JSON value of '" + std::string(key) + "' is not finite");
  }
  os_ << value;
}

}  // namespace lumos
