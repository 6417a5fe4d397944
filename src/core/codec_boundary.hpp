// The HTTP side of the wire-codec boundary (DESIGN.md §14), shared by
// SpiServer, PackingProxy and SpiClient. Inbound, content_codec() maps a
// message's Content-Encoding label to a codec; Dispatcher::parse_request /
// parse_response then own the decode→parse step. Outbound, ResponseEncoder
// is the one Accept-Encoding negotiation and encode-with-identity-fallback
// every SPI endpoint answers with.
#pragma once

#include <map>
#include <string>

#include "codec/registry.hpp"
#include "codec/response_cache.hpp"
#include "codec/wire_codec.hpp"
#include "http/message.hpp"
#include "telemetry/metrics.hpp"

namespace spi::core {

/// The codec a message's Content-Encoding header names: identity when the
/// header is absent; kInvalidArgument ("unsupported Content-Encoding")
/// when `codecs` has no codec by that name.
Result<const codec::WireCodec*> content_codec(
    const http::Headers& headers, const codec::CodecRegistry& codecs);

/// Per-request response coding for an SPI endpoint. Stateless between
/// messages, so pooled keep-alive connections may switch codecs freely.
class ResponseEncoder {
 public:
  /// Registers spi_codec_fallbacks_total, and spi_codec_negotiations_total
  /// and spi_codec_encoded_bytes_total per codec, in `metrics`. `cache`
  /// (optional, borrowed) memoizes encodings by (codec, text).
  ResponseEncoder(const codec::CodecRegistry& codecs,
                  telemetry::MetricsRegistry& metrics,
                  codec::EncodedResponseCache* cache = nullptr);

  /// The codec to answer `request` with, from its Accept-Encoding header
  /// (absent or unmatched → identity), counting the choice and any
  /// fallback.
  const codec::WireCodec& negotiate(const http::Request& request);

  /// A text/xml response carrying `envelope` encoded with `codec` and
  /// labeled with Content-Encoding. Identity — and an encode failure:
  /// compression is an optimization, never a reason to fault a message
  /// that executed — sends the text unchanged and unlabeled.
  http::Response respond(int status, const codec::WireCodec& codec,
                         std::string envelope);

 private:
  const codec::CodecRegistry& codecs_;
  codec::EncodedResponseCache* cache_;
  telemetry::Counter* fallbacks_ = nullptr;  // registry-owned
  std::map<std::string, telemetry::Counter*, std::less<>> negotiations_;
  std::map<std::string, telemetry::Counter*, std::less<>> encoded_bytes_;
};

}  // namespace spi::core
