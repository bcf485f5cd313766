#include "common/status.h"

namespace tio {

std::string_view errc_name(Errc e) {
  switch (e) {
    case Errc::ok: return "OK";
    case Errc::not_found: return "NOT_FOUND";
    case Errc::exists: return "EXISTS";
    case Errc::not_a_directory: return "NOT_A_DIRECTORY";
    case Errc::is_a_directory: return "IS_A_DIRECTORY";
    case Errc::invalid: return "INVALID";
    case Errc::bad_handle: return "BAD_HANDLE";
    case Errc::busy: return "BUSY";
    case Errc::io_error: return "IO_ERROR";
    case Errc::permission: return "PERMISSION";
    case Errc::unsupported: return "UNSUPPORTED";
    case Errc::no_space: return "NO_SPACE";
    case Errc::stale: return "STALE";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  std::string s(errc_name(code_));
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace tio
