// Small string and path helpers shared by the namespace layers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tio {

std::vector<std::string_view> split(std::string_view s, char sep);
std::string join(const std::vector<std::string>& parts, std::string_view sep);

// POSIX-style path helpers operating on '/'-separated logical paths.
std::string path_join(std::string_view a, std::string_view b);
std::string_view path_dirname(std::string_view p);  // "/a/b/c" -> "/a/b", "/a" -> "/"
// Normalizes to an absolute path with no trailing slash (except root), no
// empty or "." components. Does not resolve "..".
std::string path_normalize(std::string_view p);
// Components of a path, as path_normalize keeps them ("/a/./b/" -> {"a", "b"}).
std::vector<std::string_view> path_components(std::string_view p);
// The next such component of `p` at or after `pos`, advancing `pos` past
// it; empty once `p` is exhausted. Allocates nothing.
std::string_view next_path_component(std::string_view p, std::size_t& pos);

std::string format_bytes(std::uint64_t bytes);  // "50.0 MiB"
std::string str_printf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace tio
