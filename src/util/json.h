// The one writer for the numbers and strings of every daemon reply,
// `crowdeval --format=json` document, METRICS exposition, chrome trace
// and JSON log line. Numbers go through std::to_chars, which the
// standard defines as printf in the C locale, so the bytes are those
// of "%.17g", "%g", "%.3f" and "%.6f"; tests/json_reference.h keeps
// the printf forms as the oracle. Header-only and free of crowd_*
// dependencies, because crowd_obs links below crowd_util.

#ifndef CROWD_UTIL_JSON_H_
#define CROWD_UTIL_JSON_H_

#include <charconv>
#include <cmath>
#include <concepts>
#include <string>
#include <string_view>
#include <system_error>

namespace crowd::json {

/// Text appended as a JSON string: escaped, between quotes.
struct Quoted {
  std::string_view text;
};

/// Appends `text` JSON-escaped, without quotes: `"`, `\`, \n, \r and \t
/// as backslash pairs, other bytes below 0x20 as \u00XX.
inline void AppendEscaped(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char ch : text) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c >= 0x20) {
          out->push_back(ch);
        } else {
          out->append({'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]});
        }
    }
  }
}

/// Appends `v` as printf's "%.<precision>g" (general) or
/// "%.<precision>f" (fixed) would; `precision` is at most 17.
inline void AppendChars(std::string* out, double v, std::chars_format format,
                        int precision) {
  char buffer[336];  // a sign, 309 integer digits, a point, 17 decimals
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), v, format, precision);
  if (ec == std::errc()) out->append(buffer, end);
}

namespace internal {

template <size_t N>
void AppendPart(std::string* out, const char (&literal)[N]) {
  out->append(literal, N - 1);
}

template <typename T>
  requires(std::integral<T> || std::same_as<T, double>) &&
          (!std::same_as<T, char>)
void AppendPart(std::string* out, T v) {
  if constexpr (std::same_as<T, bool>) {
    *out += v ? "true" : "false";
  } else if constexpr (std::same_as<T, double>) {
    // %.17g round-trips every finite double; JSON has no NaN or Inf.
    if (std::isfinite(v)) {
      AppendChars(out, v, std::chars_format::general, 17);
    } else {
      *out += "null";
    }
  } else {
    char buffer[24];  // a sign and the 20 digits of a uint64_t
    out->append(buffer, std::to_chars(buffer, buffer + 24, v).ptr);
  }
}

inline void AppendPart(std::string* out, const Quoted& s) {
  out->push_back('"');
  AppendEscaped(out, s.text);
  out->push_back('"');
}

}  // namespace internal

/// Appends each part by its exact type, converting nothing: a string
/// literal as JSON text, an integer, a bool, a double (round-trip or
/// null) and Quoted text. Anything else, std::string and char included,
/// does not compile, so only literals reach the output unescaped.
template <typename... Parts>
void Append(std::string* out, const Parts&... parts) {
  (internal::AppendPart(out, parts), ...);
}

/// Appends `[e(0),...,e(count-1)]`; `append_element(i)` appends e(i).
template <typename AppendElement>
void AppendArray(std::string* out, size_t count,
                 const AppendElement& append_element) {
  out->push_back('[');
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) out->push_back(',');
    append_element(i);
  }
  out->push_back(']');
}

}  // namespace crowd::json

#endif  // CROWD_UTIL_JSON_H_
