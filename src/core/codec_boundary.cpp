#include "core/codec_boundary.hpp"

#include <optional>
#include <vector>

#include "http/parser.hpp"

namespace spi::core {

Result<const codec::WireCodec*> content_codec(
    const http::Headers& headers, const codec::CodecRegistry& codecs) {
  auto coding = headers.get("Content-Encoding");
  if (!coding) return &codec::identity_codec();
  if (const codec::WireCodec* found = codecs.find(*coding)) return found;
  return Error(ErrorCode::kInvalidArgument,
               "unsupported Content-Encoding: " + std::string(*coding));
}

ResponseEncoder::ResponseEncoder(const codec::CodecRegistry& codecs,
                                 telemetry::MetricsRegistry& metrics,
                                 codec::EncodedResponseCache* cache)
    : codecs_(codecs), cache_(cache) {
  fallbacks_ = &metrics.counter(
      "spi_codec_fallbacks_total",
      "Accept-Encoding advertisements that matched no registered codec "
      "(response fell back to identity)");
  for (const std::string& name : codecs_.names()) {
    const std::string label = "codec=\"" + name + "\"";
    negotiations_.emplace(
        name, &metrics.counter("spi_codec_negotiations_total",
                               "Response codec negotiations by chosen codec",
                               label));
    encoded_bytes_.emplace(
        name, &metrics.counter("spi_codec_encoded_bytes_total",
                               "Encoded response-body bytes put on the wire, "
                               "by codec",
                               label));
  }
}

const codec::WireCodec& ResponseEncoder::negotiate(
    const http::Request& request) {
  auto accept = request.headers.get("Accept-Encoding");
  if (!accept) return codec::identity_codec();
  auto entries = http::parse_accept_encoding(*accept);
  std::vector<codec::CodecPreference> preferences;
  preferences.reserve(entries.size());
  for (http::AcceptEncodingEntry& entry : entries) {
    preferences.push_back({std::move(entry.name), entry.q});
  }
  bool fell_back = false;
  const codec::WireCodec& chosen = codecs_.negotiate(preferences, &fell_back);
  if (fell_back) fallbacks_->inc();
  if (auto found = negotiations_.find(chosen.name());
      found != negotiations_.end()) {
    found->second->inc();
  }
  return chosen;
}

http::Response ResponseEncoder::respond(int status,
                                        const codec::WireCodec& codec,
                                        std::string envelope) {
  std::optional<std::string> encoded;
  if (codec.name() != "identity") {
    if (cache_) encoded = cache_->get(codec.name(), envelope);
    if (!encoded) {
      if (auto result = codec.encode(envelope); result.ok()) {
        encoded = std::move(result).value();
        if (cache_) cache_->put(codec.name(), envelope, *encoded);
      }
    }
  }
  if (!encoded) {
    return http::Response::make(status, http::default_reason(status),
                                std::move(envelope), "text/xml");
  }
  if (auto found = encoded_bytes_.find(codec.name());
      found != encoded_bytes_.end()) {
    found->second->inc(encoded->size());
  }
  http::Response response = http::Response::make(
      status, http::default_reason(status), std::move(*encoded), "text/xml");
  response.headers.set("Content-Encoding", codec.name());
  return response;
}

}  // namespace spi::core
