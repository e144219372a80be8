#include "common/inline_vec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace opass {
namespace {

using Vec = InlineVec<std::uint32_t, 4>;

Vec make(std::uint32_t n) {
  Vec v;
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(i * 10);
  return v;
}

std::vector<std::uint32_t> as_vector(const Vec& v) { return {v.begin(), v.end()}; }

TEST(InlineVec, StartsEmptyAndInline) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.begin(), v.end());
}

TEST(InlineVec, PushPastInlineCapacitySpillsAndKeepsOrder) {
  Vec v;
  for (std::uint32_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_FALSE(v.spilled());
  v.push_back(4);
  EXPECT_TRUE(v.spilled());
  EXPECT_GE(v.capacity(), 5u);
  for (std::uint32_t i = 5; i < 40; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 40u);
  for (std::uint32_t i = 0; i < 40; ++i) EXPECT_EQ(v[i], i);
  EXPECT_EQ(v.front(), 0u);
  EXPECT_EQ(v.back(), 39u);
}

TEST(InlineVec, PushOfOwnElementSurvivesTheSpill) {
  Vec v = make(4);
  v.push_back(v[1]);  // the argument lives in the inline buffer being left
  EXPECT_EQ(as_vector(v), (std::vector<std::uint32_t>{0, 10, 20, 30, 10}));
}

TEST(InlineVec, EraseBackBelowInlineCapacity) {
  Vec v = make(6);
  ASSERT_TRUE(v.spilled());
  v.erase(v.begin() + 5);
  v.erase(v.begin() + 4);
  v.erase(v.begin() + 3);
  EXPECT_EQ(as_vector(v), (std::vector<std::uint32_t>{0, 10, 20}));
  // Like std::vector, erasing keeps the block; shrink_to_fit moves back inline.
  EXPECT_TRUE(v.spilled());
  v.shrink_to_fit();
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_EQ(as_vector(v), (std::vector<std::uint32_t>{0, 10, 20}));
}

TEST(InlineVec, ShrinkToFitKeepsAnOversizedBlock) {
  Vec v = make(6);
  v.shrink_to_fit();
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v.size(), 6u);
}

TEST(InlineVec, EraseFrontMiddleBackMatchesVector) {
  for (std::uint32_t n : {3u, 4u, 7u}) {
    for (std::uint32_t at = 0; at < n; ++at) {
      Vec v = make(n);
      std::vector<std::uint32_t> ref = as_vector(v);
      const auto it = v.erase(v.begin() + at);
      const auto ref_it = ref.erase(ref.begin() + at);
      EXPECT_EQ(as_vector(v), ref) << "n=" << n << " at=" << at;
      EXPECT_EQ(it - v.begin(), ref_it - ref.begin());
    }
  }
}

TEST(InlineVec, EraseRange) {
  Vec v = make(7);
  const auto it = v.erase(v.begin() + 1, v.begin() + 4);
  EXPECT_EQ(as_vector(v), (std::vector<std::uint32_t>{0, 40, 50, 60}));
  EXPECT_EQ(*it, 40u);
  v.erase(v.begin(), v.end());
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, EraseIfKeepsSurvivorOrder) {
  Vec v = make(9);
  const std::size_t removed = erase_if(v, [](std::uint32_t x) { return x % 20 == 0; });
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(as_vector(v), (std::vector<std::uint32_t>{10, 30, 50, 70}));
  EXPECT_EQ(erase_if(v, [](std::uint32_t) { return false; }), 0u);
  EXPECT_EQ(erase_if(v, [](std::uint32_t) { return true; }), 4u);
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, CopyOfInlineAndSpilledStates) {
  for (std::uint32_t n : {0u, 2u, 4u, 5u, 12u}) {
    const Vec src = make(n);
    Vec copy(src);
    EXPECT_EQ(copy, src);
    EXPECT_EQ(copy.spilled(), n > 4);
    copy.push_back(99);  // independent storage
    EXPECT_EQ(src.size(), n);

    Vec assigned = make(7);  // spilled target, shrinking or growing
    assigned = src;
    EXPECT_EQ(assigned, src);
    Vec small = make(1);  // inline target
    small = src;
    EXPECT_EQ(small, src);
  }
}

TEST(InlineVec, MoveOfInlineAndSpilledStates) {
  for (std::uint32_t n : {0u, 3u, 4u, 5u, 12u}) {
    Vec src = make(n);
    const std::vector<std::uint32_t> expect = as_vector(src);
    Vec moved(std::move(src));
    EXPECT_EQ(moved, expect);
    EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move): moved-from state is specified
    EXPECT_FALSE(src.spilled());
    src.push_back(1);  // a moved-from vector stays usable
    EXPECT_EQ(src.size(), 1u);

    Vec target = make(9);
    target = std::move(moved);
    EXPECT_EQ(target, expect);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(InlineVec, SelfAssignmentIsANoOp) {
  for (std::uint32_t n : {3u, 9u}) {
    Vec v = make(n);
    const std::vector<std::uint32_t> expect = as_vector(v);
    Vec& alias = v;
    v = alias;
    EXPECT_EQ(v, expect);
    v = std::move(alias);
    EXPECT_EQ(v, expect);
  }
}

TEST(InlineVec, EqualityWithStdVector) {
  const std::vector<std::uint32_t> ref{1, 2, 3, 4, 5, 6};
  Vec v;
  v = ref;
  EXPECT_EQ(v, ref);
  EXPECT_TRUE(ref == v);
  v.pop_back();
  EXPECT_FALSE(v == ref);
  EXPECT_NE(ref, v);
  EXPECT_EQ(Vec{}, std::vector<std::uint32_t>{});
  EXPECT_NE(Vec{1}, std::vector<std::uint32_t>{2});
}

TEST(InlineVec, AssignFromListAndSpan) {
  Vec v;
  v = {7, 8};
  EXPECT_EQ(v, (std::vector<std::uint32_t>{7, 8}));
  const std::vector<std::uint32_t> big{1, 2, 3, 4, 5};
  v = big;
  EXPECT_EQ(v, big);
  EXPECT_TRUE(v.spilled());
  v = {3};
  EXPECT_EQ(v, std::vector<std::uint32_t>{3});
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, ViewsAsSpan) {
  const Vec v = make(5);
  const std::span<const std::uint32_t> view = v;
  ASSERT_EQ(view.size(), 5u);
  EXPECT_EQ(view.data(), v.data());
}

}  // namespace
}  // namespace opass
