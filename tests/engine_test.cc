/// The engine layer: registry bookkeeping, capability flags, and the
/// contract that every engine created through the registry behaves like the
/// evaluator it wraps.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "lqdb/engine/engine.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/parser.h"
#include "tests/testing.h"

namespace lqdb {
namespace {

std::unique_ptr<CwDatabase> MurderDb() {
  auto lb = std::make_unique<CwDatabase>();
  lb->AddUnknownConstant("Jack");
  lb->AddKnownConstant("Victoria");
  lb->AddKnownConstant("Disraeli");
  Status s = lb->AddFact("MURDERER", {"Jack"});
  s = lb->AddDistinct("Jack", "Victoria");
  (void)s;
  return lb;
}

TEST(EngineRegistryTest, BuiltinsAreRegistered) {
  EngineRegistry& registry = EngineRegistry::Global();
  for (const char* name :
       {"brute", "batched-exact", "exact", "approx", "physical"}) {
    EXPECT_TRUE(registry.Has(name)) << name;
  }
  auto names = registry.Names();
  EXPECT_GE(names.size(), 5u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(EngineRegistryTest, CapabilitiesMatchTheTheorems) {
  EngineRegistry& registry = EngineRegistry::Global();
  for (const char* name : {"brute", "batched-exact", "exact"}) {
    ASSERT_OK_AND_ASSIGN(EngineCapabilities caps,
                         registry.CapabilitiesOf(name));
    EXPECT_TRUE(caps.exact()) << name;
    EXPECT_FALSE(caps.polynomial) << name;  // Theorem 5: co-NP-complete
  }
  ASSERT_OK_AND_ASSIGN(EngineCapabilities approx,
                       registry.CapabilitiesOf("approx"));
  EXPECT_TRUE(approx.sound);        // Theorem 11
  EXPECT_FALSE(approx.complete);    // incomplete in general
  EXPECT_TRUE(approx.polynomial);   // Theorem 14
  ASSERT_OK_AND_ASSIGN(EngineCapabilities physical,
                       registry.CapabilitiesOf("physical"));
  EXPECT_FALSE(physical.sound);
  EXPECT_FALSE(physical.complete);
}

TEST(EngineRegistryTest, UnknownNamesAreNotFound) {
  EngineRegistry& registry = EngineRegistry::Global();
  auto lb = MurderDb();
  auto engine = registry.Create("frobnicator", lb.get());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
  // The error lists the registered engines so shell users can recover.
  EXPECT_NE(engine.status().message().find("batched-exact"),
            std::string::npos)
      << engine.status();
  EXPECT_FALSE(registry.CapabilitiesOf("frobnicator").ok());
}

TEST(EngineRegistryTest, DuplicateRegistrationIsRejected) {
  EngineRegistry registry;  // a private registry, not the global one
  EngineCapabilities caps;
  auto factory = [](const CwDatabase*, const EngineOptions&)
      -> Result<std::unique_ptr<QueryEngine>> {
    return Status::Unimplemented("test factory");
  };
  ASSERT_OK(registry.Register("custom", caps, factory));
  Status dup = registry.Register("custom", caps, factory);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Register("", caps, factory).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineRegistryTest, ExactFamilyEnginesAgreeThroughTheRegistry) {
  for (const char* name : {"brute", "batched-exact", "exact"}) {
    SCOPED_TRACE(name);
    auto lb = MurderDb();
    auto query = ParseQuery(lb->mutable_vocab(), "(x) . !MURDERER(x)");
    ASSERT_TRUE(query.ok()) << query.status();

    // Direct sequential evaluation is the reference.
    ExactEvaluator reference(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation expected, reference.Answer(query.value()));

    EngineOptions options;
    options.exact.threads = 2;
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<QueryEngine> engine,
        EngineRegistry::Global().Create(name, lb.get(), options));
    EXPECT_EQ(engine->name(), name);
    EXPECT_TRUE(engine->capabilities().exact());

    ASSERT_OK_AND_ASSIGN(Relation answer, engine->Answer(query.value()));
    EXPECT_EQ(answer, expected);
    EXPECT_GE(engine->last_mappings_examined(), 1u);

    // Contains must agree with Answer membership.
    ASSERT_OK_AND_ASSIGN(bool has_victoria,
                         engine->Contains(query.value(), {1}));
    EXPECT_EQ(has_victoria, expected.Contains({1}));
  }
}

TEST(EngineRegistryTest, EveryEngineRejectsInvalidCandidates) {
  // A wrong arity or a constant the database does not have is an
  // InvalidArgument from every registered engine — never an answer, and
  // never a read past the end of a mapping.
  for (const std::string& name : EngineRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    auto lb = std::make_unique<CwDatabase>();
    lb->AddKnownConstant("a");
    lb->AddUnknownConstant("u");
    ASSERT_OK(lb->AddFact("P", {"a"}));
    auto query = ParseQuery(lb->mutable_vocab(), "(x) . P(x)");
    ASSERT_TRUE(query.ok()) << query.status();
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryEngine> engine,
                         EngineRegistry::Global().Create(name, lb.get()));
    EXPECT_EQ(engine->Contains(query.value(), {0, 0}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine->Contains(query.value(), {1000}).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(EngineRegistryTest, ApproxEngineIsSoundThroughTheRegistry) {
  auto lb = MurderDb();
  auto query = ParseQuery(lb->mutable_vocab(), "(x) . !MURDERER(x)");
  ASSERT_TRUE(query.ok()) << query.status();
  ExactEvaluator reference(lb.get());
  ASSERT_OK_AND_ASSIGN(Relation exact, reference.Answer(query.value()));

  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<QueryEngine> approx,
      EngineRegistry::Global().Create("approx", lb.get()));
  ASSERT_OK_AND_ASSIGN(Relation answer, approx->Answer(query.value()));
  EXPECT_TRUE(answer.IsSubsetOf(exact));
  // PossibleAnswer is not in the approximation's contract.
  EXPECT_FALSE(approx->capabilities().supports_possible);
  EXPECT_EQ(approx->PossibleAnswer(query.value()).status().code(),
            StatusCode::kUnimplemented);
}

TEST(EngineRegistryTest, PossibleAnswerThroughTheRegistry) {
  for (const char* name : {"brute", "batched-exact", "exact"}) {
    SCOPED_TRACE(name);
    auto lb = MurderDb();
    auto query = ParseQuery(lb->mutable_vocab(), "(x) . MURDERER(x)");
    ASSERT_TRUE(query.ok()) << query.status();
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<QueryEngine> engine,
        EngineRegistry::Global().Create(name, lb.get()));
    ASSERT_TRUE(engine->capabilities().supports_possible);
    ASSERT_OK_AND_ASSIGN(Relation possible,
                         engine->PossibleAnswer(query.value()));
    // Jack certainly; Disraeli possibly (no axiom separates him from Jack);
    // Victoria excluded by the explicit axiom.
    EXPECT_TRUE(possible.Contains({0}));
    EXPECT_TRUE(possible.Contains({2}));
    EXPECT_FALSE(possible.Contains({1}));
  }
}

TEST(EngineRegistryTest, CustomEnginesPlugIn) {
  // The extension story the registry exists for: a third-party engine
  // registered by name becomes available to every caller.
  EngineRegistry registry;
  RegisterBuiltinEngines(&registry);

  class ConstantEmptyEngine : public QueryEngine {
   public:
    const std::string& name() const override {
      static const std::string kName = "empty";
      return kName;
    }
    const EngineCapabilities& capabilities() const override {
      static const EngineCapabilities kCaps = [] {
        EngineCapabilities c;
        c.sound = true;  // vacuously: returns no tuples
        c.polynomial = true;
        return c;
      }();
      return kCaps;
    }
    Result<Relation> Answer(const Query& query) override {
      return Relation(static_cast<int>(query.arity()));
    }
    Result<bool> Contains(const Query&, const Tuple&) override {
      return false;
    }
  };

  EngineCapabilities caps;
  caps.sound = true;
  caps.polynomial = true;
  ASSERT_OK(registry.Register(
      "empty", caps,
      [](const CwDatabase*, const EngineOptions&)
          -> Result<std::unique_ptr<QueryEngine>> {
        return std::unique_ptr<QueryEngine>(new ConstantEmptyEngine());
      }));

  auto lb = MurderDb();
  auto query = ParseQuery(lb->mutable_vocab(), "(x) . !MURDERER(x)");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryEngine> engine,
                       registry.Create("empty", lb.get()));
  ASSERT_OK_AND_ASSIGN(Relation answer, engine->Answer(query.value()));
  EXPECT_TRUE(answer.empty());
}

}  // namespace
}  // namespace lqdb
