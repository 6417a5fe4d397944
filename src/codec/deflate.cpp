#include "codec/deflate.hpp"

#include <zlib.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>

namespace spi::codec {

namespace {

// Level 9: on the packed text envelopes this codec carries it matches the
// wire size of the encoder this one replaced; level 6 is ~6% larger
// (EXPERIMENTS.md "One deflate").
constexpr int kLevel = 9;

// zlib's MIN_LOOKAHEAD: a window of at least size + kLookahead bytes
// reaches back over the whole input, so no match is lost to it.
constexpr size_t kLookahead = 262;

/// Smallest window in [2^9, 2^15] that holds the whole input. zlib sizes
/// its per-stream state by windowBits and memLevel, so a 1 KB envelope
/// does not pay for allocating and clearing 32 KB windows and hash heads.
/// Inputs of 32 KB - 262 B and up get zlib's defaults (15, 8).
int window_bits_for(size_t size) {
  int bits = 9;
  while (bits < MAX_WBITS && (size_t{1} << bits) < size + kLookahead) ++bits;
  return bits;
}

Error corrupt(std::string detail) {
  return Error(ErrorCode::kCodecError, "deflate: " + std::move(detail));
}

/// Runs deflateEnd / inflateEnd on every exit, exceptions included.
using StreamEnd = std::unique_ptr<z_stream, int (*)(z_streamp)>;

}  // namespace

Result<std::string> DeflateCodec::encode(std::string_view plain) const {
  // zlib counts input in uInt; a larger body would be silently cut short.
  if (plain.size() > std::numeric_limits<uInt>::max()) {
    return Error(ErrorCode::kCapacityExceeded,
                 "deflate: input exceeds zlib's 4 GiB stream limit");
  }
  const int window_bits = window_bits_for(plain.size());
  z_stream stream{};
  int rc = deflateInit2(&stream, kLevel, Z_DEFLATED, window_bits,
                        std::min(8, window_bits - 7), Z_DEFAULT_STRATEGY);
  if (rc != Z_OK) {
    return Error(ErrorCode::kInternal,
                 "deflate: zlib deflateInit2 rc=" + std::to_string(rc));
  }
  StreamEnd end(&stream, deflateEnd);
  std::string out(deflateBound(&stream, static_cast<uLong>(plain.size())),
                  '\0');
  stream.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(plain.data()));
  stream.avail_in = static_cast<uInt>(plain.size());
  stream.next_out = reinterpret_cast<Bytef*>(out.data());
  stream.avail_out = static_cast<uInt>(out.size());
  rc = deflate(&stream, Z_FINISH);
  if (rc != Z_STREAM_END) {
    return Error(ErrorCode::kInternal,
                 "deflate: zlib deflate rc=" + std::to_string(rc));
  }
  out.resize(stream.total_out);
  return out;
}

Result<std::string> DeflateCodec::decode(std::string_view wire,
                                         size_t max_decoded_bytes) const {
  z_stream stream{};
  if (inflateInit(&stream) != Z_OK) {
    return Error(ErrorCode::kInternal, "deflate: zlib inflateInit failed");
  }
  StreamEnd end(&stream, inflateEnd);
  stream.next_in =
      reinterpret_cast<Bytef*>(const_cast<char*>(wire.data()));
  stream.avail_in = static_cast<uInt>(wire.size());

  std::string out;
  std::array<char, 64 * 1024> chunk;
  int rc = Z_OK;
  do {
    stream.next_out = reinterpret_cast<Bytef*>(chunk.data());
    stream.avail_out = static_cast<uInt>(chunk.size());
    rc = inflate(&stream, Z_NO_FLUSH);
    if (rc != Z_OK && rc != Z_STREAM_END) {
      return corrupt("zlib inflate rc=" + std::to_string(rc));
    }
    size_t produced = chunk.size() - stream.avail_out;
    if (out.size() + produced > max_decoded_bytes) {
      return decoded_limit_error("deflate", max_decoded_bytes);
    }
    out.append(chunk.data(), produced);
  } while (rc != Z_STREAM_END);
  if (stream.avail_in != 0) return corrupt("trailing bytes after zlib stream");
  return out;
}

}  // namespace spi::codec
