#include "obs/write_file.hpp"

#include <filesystem>
#include <fstream>

#include "core/contracts.hpp"

namespace tc3i::obs {

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body,
                std::string* error) {
  TC3I_EXPECTS(!path.empty());
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  body(out);
  out.close();
  if (!out) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace tc3i::obs
