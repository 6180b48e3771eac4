#include "util/status.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace fedadmm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoryHelpersSetCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::NotFound("missing file").message(), "missing file");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  const Status s = Status::InvalidArgument("bad dims");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dims");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IoError("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, StatusMessageReferenceOutlivesTheCall) {
  // An lvalue Result hands out its own Status, so a reference into the
  // message stays valid for the Result's lifetime (no temporary to dangle).
  const Result<int> r(Status::InvalidArgument("bad spec 'sparse'"));
  const std::string& message = r.status().message();
  const Result<int> other(Status::NotFound("unrelated"));
  EXPECT_FALSE(other.ok());
  EXPECT_EQ(message, "bad spec 'sparse'");
  EXPECT_EQ(&message, &r.status().message());
}

TEST(ResultTest, RvalueStatusIsMovedOut) {
  Result<std::string> r(Status::IoError("disk gone"));
  const Status status = std::move(r).status();
  EXPECT_TRUE(status.IsIoError());
  EXPECT_EQ(status.message(), "disk gone");
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r(7);
  EXPECT_EQ(r.ValueOr(-1), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, WorksWithAssignOrReturnMacro) {
  auto producer = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto consumer = [&](bool fail) -> Status {
    FEDADMM_ASSIGN_OR_RETURN(int v, producer(fail));
    EXPECT_EQ(v, 5);
    return Status::OK();
  };
  EXPECT_TRUE(consumer(false).ok());
  EXPECT_TRUE(consumer(true).IsInternal());
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  auto fn = [](const Status& s) -> Status {
    FEDADMM_RETURN_IF_ERROR(s);
    return Status::Internal("not reached on error");
  };
  EXPECT_TRUE(fn(Status::IoError("disk")).IsIoError());
  EXPECT_TRUE(fn(Status::OK()).IsInternal());
}

}  // namespace
}  // namespace fedadmm
