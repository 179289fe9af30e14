// Contract-check utilities.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/expect.h"

namespace cav {
namespace {

TEST(Expect, PassingConditionIsSilent) {
  EXPECT_NO_THROW(expect(true, "always fine"));
  EXPECT_NO_THROW(ensure(true, "always fine"));
}

TEST(Expect, FailingPreconditionThrowsWithMessage) {
  try {
    expect(false, "population_size > 0");
    FAIL() << "expect must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("population_size > 0"), std::string::npos);
  }
}

TEST(Expect, FailingInvariantThrowsWithMessage) {
  try {
    ensure(false, "values converged");
    FAIL() << "ensure must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("values converged"), std::string::npos);
  }
}

TEST(Expect, ContractViolationIsLogicError) {
  EXPECT_THROW(expect(false, "x"), std::logic_error);
}

}  // namespace
}  // namespace cav
