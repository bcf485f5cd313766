// Status vocabulary: errc_name coverage and the transient/permanent split
// the retry layer keys off.
#include "common/status.h"

#include <gtest/gtest.h>

#include <set>

namespace tio {
namespace {

constexpr Errc kAllCodes[] = {
    Errc::ok,        Errc::not_found, Errc::exists,  Errc::not_a_directory,
    Errc::is_a_directory, Errc::invalid, Errc::bad_handle,
    Errc::busy,      Errc::io_error,  Errc::permission, Errc::unsupported,
    Errc::no_space,  Errc::stale,
};

TEST(Status, ErrcNameCoversEveryCode) {
  std::set<std::string_view> seen;
  for (const Errc e : kAllCodes) {
    const std::string_view name = errc_name(e);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "UNKNOWN") << static_cast<int>(e);
    // Names are distinct — a log line identifies the code unambiguously.
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
  EXPECT_EQ(seen.size(), 13u);
}

TEST(Status, TransientTruthTable) {
  // Exactly EBUSY / EIO / ESTALE are worth retrying; everything else is a
  // property of the request, and retrying can only waste budget.
  for (const Errc e : kAllCodes) {
    const bool want = e == Errc::busy || e == Errc::io_error || e == Errc::stale;
    EXPECT_EQ(errc_is_transient(e), want) << errc_name(e);
    EXPECT_EQ(error(e, "x").is_transient(), want) << errc_name(e);
  }
  EXPECT_FALSE(Status::Ok().is_transient());
}

TEST(Status, ToStringFormatsCodeAndMessage) {
  EXPECT_EQ(Status::Ok().to_string(), "OK");
  EXPECT_EQ(error(Errc::not_found, "no such log").to_string(), "NOT_FOUND: no such log");
  EXPECT_EQ(error(Errc::stale, "").to_string(), "STALE");
}

TEST(Status, ResultPropagatesTransience) {
  const Result<int> r = error(Errc::busy, "mds saturated");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().is_transient());
  const Result<int> ok = 7;
  EXPECT_TRUE(ok.status().ok());
}

}  // namespace
}  // namespace tio
