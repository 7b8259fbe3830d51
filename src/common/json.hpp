// The one JSON writer: bench files, campaign dumps, Chrome traces, timelines
// and the CLI's --json mode all go through `JsonWriter`.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lumos {

// Escapes `s` for embedding inside a JSON string literal: quotes,
// backslashes, and control characters (as \uXXXX / the short forms).
[[nodiscard]] std::string json_escape(std::string_view s);

// Streams one JSON document to `os` and owns every comma and line break: the
// root object, and every array whose elements are objects or arrays, put one
// element per line (two spaces of indent per open container); everything
// else stays on its line.  Keys and strings are escaped.  A double prints as
// `os << value` prints it, so the stream's format picks its digits; a
// non-finite one throws `InvalidArgument` naming its key, so no `nan` or
// `inf` reaches a file.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  // Opens an object or array as member `key` of the enclosing object, or
  // with no key as the root or the next array element.  `end` closes the
  // innermost one; closing the root ends the line.
  JsonWriter& begin_object(std::string_view key = {}) { return open('{', key); }
  JsonWriter& begin_array(std::string_view key = {}) { return open('[', key); }
  JsonWriter& end();

  // Member `key` of the enclosing object (`field`) or the next array element
  // (`element`): a string, bool, integer or double.
  template <typename T>
  JsonWriter& field(std::string_view key, const T& value) {
    separate(/*container=*/false, key);
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (value ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      os_ << +value;  // unary + prints char-sized integers as numbers
    } else if constexpr (std::is_floating_point_v<T>) {
      put_double(value, key.empty() ? std::string_view(levels_.back().key) : key);
    } else {
      os_ << '"' << json_escape(value) << '"';
    }
    return *this;
  }
  template <typename T>
  JsonWriter& element(const T& value) {
    return field({}, value);
  }

 private:
  struct Level {
    char close;         // '}' or ']'
    bool one_per_line;  // the root object, or an array of objects or arrays
    bool empty;
    std::string key;    // the key it was opened under, for error messages
  };

  JsonWriter& open(char bracket, std::string_view key);
  // Writes what precedes a value: comma, line break and indent, and `key`
  // inside an object.
  void separate(bool container, std::string_view key);
  void put_double(double value, std::string_view key);

  std::ostream& os_;
  std::vector<Level> levels_;
};

}  // namespace lumos
