// Checked file output shared by every obs artifact writer.
#pragma once

#include <functional>
#include <ostream>
#include <string>

namespace tc3i::obs {

/// Creates the parent directories of `path`, opens it, streams `body` into
/// it, closes it and checks the stream. The check comes after the close: a
/// full disk only surfaces when the buffered bytes are flushed. Returns
/// false with `*error` naming `path` on any failure.
[[nodiscard]] bool write_file(const std::string& path,
                              const std::function<void(std::ostream&)>& body,
                              std::string* error);

}  // namespace tc3i::obs
