// Incremental NDJSON frame splitting for non-blocking sockets.
//
// A LineSplitter is fed whatever bytes recv() produced — torn frames, many
// frames at once, or a single byte — and yields complete newline-terminated
// lines. The contract the framing tests pin:
//
//   * splitting is byte-boundary-independent: feeding a stream one byte at a
//     time yields exactly the lines of feeding it in one call;
//   * '\r' before the terminator is stripped (telnet/nc friendliness), blank
//     lines are swallowed (keep-alive probes);
//   * a line longer than `max_line_bytes` is rejected without buffering it:
//     the splitter drops into a skip state that discards bytes until the
//     next '\n' (bounded memory under a hostile or broken writer) and
//     reports the rejection so the transport can answer with an error line;
//   * bytes buffered for an incomplete frame are capped by max_line_bytes,
//     so per-connection memory is bounded regardless of peer behavior.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace asppi::net {

class LineSplitter {
 public:
  explicit LineSplitter(std::size_t max_line_bytes = 64 * 1024)
      : max_line_bytes_(max_line_bytes) {}

  // Appends `data` and moves every now-complete line into `lines`
  // (oversized lines are skipped and counted instead). Returns how many
  // oversized lines were rejected during this call.
  std::size_t Feed(std::string_view data, std::vector<std::string>* lines);

  // Total complete lines emitted / oversized lines rejected so far.
  std::uint64_t LinesEmitted() const { return lines_emitted_; }
  std::uint64_t Oversized() const { return oversized_; }

  // Bytes currently buffered for an incomplete frame (bounded by
  // max_line_bytes).
  std::size_t Buffered() const { return buffer_.size(); }

  std::size_t MaxLineBytes() const { return max_line_bytes_; }

 private:
  std::size_t max_line_bytes_;
  std::string buffer_;
  bool skipping_ = false;  // discarding an oversized line until '\n'
  std::uint64_t lines_emitted_ = 0;
  std::uint64_t oversized_ = 0;
};

}  // namespace asppi::net
