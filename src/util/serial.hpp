#pragma once
// Tiny POD stream (de)serialization helpers shared by the binary model and
// artifact formats. Reads validate the stream and throw std::runtime_error
// with the caller's context on truncation — every loader's "corrupt input"
// contract funnels through here — and the shape caps every model loader
// checks before it sizes an allocation from a header field.

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace smore::serial {

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Header caps: far above anything the library produces, low enough that a
/// corrupt header throws instead of exhausting memory.
inline constexpr std::uint64_t kMaxDim = 1ull << 24;
inline constexpr std::uint64_t kMaxClasses = 1ull << 20;
inline constexpr std::uint64_t kMaxDomains = 1ull << 20;
inline constexpr std::uint64_t kMaxModelBytes = 1ull << 30;

/// Whether `rows` rows of `row_bytes` bytes fit kMaxModelBytes (no overflow).
[[nodiscard]] constexpr bool within_model_bytes(std::uint64_t rows,
                                                std::uint64_t row_bytes) {
  return row_bytes == 0 || rows <= kMaxModelBytes / row_bytes;
}

template <typename T>
[[nodiscard]] T read_pod(std::istream& in, const char* context) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw std::runtime_error(std::string(context) + ": truncated stream");
  }
  return value;
}

}  // namespace smore::serial
