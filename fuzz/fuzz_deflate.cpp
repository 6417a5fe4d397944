// libFuzzer target for the deflate wire codec: a POST body labelled
// Content-Encoding: deflate reaches the inflater before any XML tokenizer
// runs. Decodes under a 64 KB and a 1 MB budget and round-trips whatever
// decodes (encode then decode must return the same bytes). Invariants: no
// crash, no sanitizer report, no output beyond the budget, and every
// rejection is a clean kCodecError (corrupt stream) or kCapacityExceeded
// (budget) Result.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "codec/deflate.hpp"

namespace {

void drive(std::string_view input, size_t max_decoded_bytes) {
  static const spi::codec::DeflateCodec codec;
  auto decoded = codec.decode(input, max_decoded_bytes);
  if (!decoded.ok()) {
    const spi::ErrorCode code = decoded.error().code();
    if (code != spi::ErrorCode::kCodecError &&
        code != spi::ErrorCode::kCapacityExceeded) {
      __builtin_trap();
    }
    return;
  }
  if (decoded.value().size() > max_decoded_bytes) __builtin_trap();
  auto encoded = codec.encode(decoded.value());
  if (!encoded.ok()) __builtin_trap();
  auto again = codec.decode(encoded.value(), max_decoded_bytes);
  if (!again.ok() || again.value() != decoded.value()) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  drive(input, 64 * 1024);
  drive(input, 1u << 20);
  return 0;
}

#ifdef SPI_FUZZ_STANDALONE
#include "standalone_main.inc"
#endif
