/**
 * @file
 * Unit tests for the typed environment accessors (common/env.h): every
 * CABA_* number goes through the strict parsers of common/parse.h, so
 * overflow, trailing garbage and out-of-range values fall back to the
 * default with one warning instead of running at a wrong value. Each
 * case below was once accepted: CABA_SCALE=1e400 ran at an infinite
 * scale, CABA_SCALE=2junk at 2.0, and CABA_SWEEPD_QUEUE=-5 made
 * caba_sweepd refuse every request.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.h"

namespace caba {
namespace {

class EnvTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        for (const char *name : {"CABA_SCALE", "CABA_JOBS",
                                 "CABA_SWEEPD_QUEUE",
                                 "CABA_SWEEPD_TIMEOUT_MS"})
            ::unsetenv(name);
    }

    static void set(const char *name, const char *value)
    {
        ASSERT_EQ(::setenv(name, value, 1), 0);
    }
};

TEST_F(EnvTest, UnsetAndEmptyGiveTheFallback)
{
    ::unsetenv("CABA_SCALE");
    EXPECT_EQ(env::positiveRealOr("CABA_SCALE", 0.5), 0.5);
    set("CABA_SCALE", "");
    EXPECT_EQ(env::positiveRealOr("CABA_SCALE", 0.5), 0.5);
}

TEST_F(EnvTest, RealRejectsOverflowGarbageAndNonPositive)
{
    for (const char *bad : {"1e400", "2junk", "nan", "inf", "0", "-1",
                            "abc"}) {
        set("CABA_SCALE", bad);
        EXPECT_EQ(env::positiveRealOr("CABA_SCALE", 0.0), 0.0) << bad;
    }
    set("CABA_SCALE", "0.25");
    EXPECT_EQ(env::positiveRealOr("CABA_SCALE", 0.0), 0.25);
}

TEST_F(EnvTest, IntRejectsNegativeGarbageAndOverflow)
{
    for (const char *bad : {"-5", "12x", "99999999999", "abc"}) {
        set("CABA_SWEEPD_QUEUE", bad);
        EXPECT_EQ(env::intOr("CABA_SWEEPD_QUEUE", 64), 64) << bad;
    }
    set("CABA_SWEEPD_QUEUE", "0");
    EXPECT_EQ(env::intOr("CABA_SWEEPD_QUEUE", 64), 0);
    set("CABA_SWEEPD_QUEUE", "7");
    EXPECT_EQ(env::intOr("CABA_SWEEPD_QUEUE", 64), 7);
}

TEST_F(EnvTest, PositiveIntRejectsZeroAndNegative)
{
    for (const char *bad : {"0", "-2", "3.5", "99999999999"}) {
        set("CABA_JOBS", bad);
        EXPECT_EQ(env::positiveIntOr("CABA_JOBS", 3), 3) << bad;
    }
    set("CABA_JOBS", "4");
    EXPECT_EQ(env::positiveIntOr("CABA_JOBS", 3), 4);
}

// The only test that reads CABA_SWEEPD_TIMEOUT_MS, so its once-per-
// process warning has not fired yet when the test binary runs whole.
TEST_F(EnvTest, RejectedValueWarnsOnceNamingTheVariable)
{
    set("CABA_SWEEPD_TIMEOUT_MS", "soon");
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(env::intOr("CABA_SWEEPD_TIMEOUT_MS", 0), 0);
    EXPECT_EQ(env::intOr("CABA_SWEEPD_TIMEOUT_MS", 0), 0);
    const std::string err = ::testing::internal::GetCapturedStderr();
    const std::string needle = "CABA_SWEEPD_TIMEOUT_MS='soon'";
    const std::size_t first = err.find(needle);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(needle, first + 1), std::string::npos) << err;
}

} // namespace
} // namespace caba
