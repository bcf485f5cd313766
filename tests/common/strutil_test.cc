#include "common/strutil.h"

#include <gtest/gtest.h>

namespace tio {
namespace {

TEST(Split, BasicAndEdges) {
  EXPECT_EQ(split("a/b/c", '/'), (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_EQ(split("", '/'), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split("/", '/'), (std::vector<std::string_view>{"", ""}));
  EXPECT_EQ(split("a//b", '/'), (std::vector<std::string_view>{"a", "", "b"}));
  EXPECT_EQ(split("trailing/", '/'), (std::vector<std::string_view>{"trailing", ""}));
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"solo"}, "/"), "solo");
}

TEST(PathJoin, HandlesSlashes) {
  EXPECT_EQ(path_join("/a", "b"), "/a/b");
  EXPECT_EQ(path_join("/a/", "b"), "/a/b");
  EXPECT_EQ(path_join("/a", "/b"), "/a/b");
  EXPECT_EQ(path_join("/a/", "//b"), "/a/b");
  EXPECT_EQ(path_join("", "b"), "b");
  EXPECT_EQ(path_join("/a", ""), "/a");
}

TEST(PathDirname, Cases) {
  EXPECT_EQ(path_dirname("/a/b/c"), "/a/b");
  EXPECT_EQ(path_dirname("/a"), "/");
  EXPECT_EQ(path_dirname("rel"), ".");
  EXPECT_EQ(path_dirname("/"), "/");
}

TEST(PathNormalize, Cases) {
  EXPECT_EQ(path_normalize("/a/b"), "/a/b");
  EXPECT_EQ(path_normalize("a/b/"), "/a/b");
  EXPECT_EQ(path_normalize("//a///b//"), "/a/b");
  EXPECT_EQ(path_normalize(""), "/");
  EXPECT_EQ(path_normalize("/./a/./b"), "/a/b");
}

TEST(PathComponents, Cases) {
  EXPECT_EQ(path_components("/a/b/c"),
            (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_TRUE(path_components("/").empty());
  EXPECT_TRUE(path_components("").empty());
}

TEST(FormatBytes, Scales) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(50ull << 20), "50.0 MiB");
  EXPECT_EQ(format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(format_bytes(10ull << 40), "10.0 TiB");
}

TEST(StrPrintf, Formats) {
  EXPECT_EQ(str_printf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(str_printf("%s", std::string(500, 'a').c_str()), std::string(500, 'a'));
}

}  // namespace
}  // namespace tio
