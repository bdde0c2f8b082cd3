// Tests for newtop_lint itself (tools/lint_scanner.*, tools/lint_rules.hpp).
//
// Each rule gets a fixture that must trigger it exactly once plus clean /
// suppressed counterparts, so a rule that silently stops firing — or starts
// over-firing — fails tier-1 immediately.  The fixtures live in
// tests/lint_fixtures/ and are excluded from the whole-tree scan; here they
// are scanned under *synthetic* repo paths so the path-scoped rules see them
// where they would matter.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint_rules.hpp"
#include "tools/lint_scanner.hpp"

namespace newtop::lint {
namespace {

std::string read_fixture(const std::string& name) {
    const std::string path = std::string(NEWTOP_LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Scan a fixture as if it lived at `rel_path` inside the repo.
std::vector<Finding> scan_fixture(const std::string& name, const std::string& rel_path) {
    return scan_source(rel_path, read_fixture(name));
}

TEST(LintRules, LayerTableIsValidDag) {
    std::string error;
    EXPECT_TRUE(layer_table_is_valid(&error)) << error;
}

// --- one triggering fixture per rule -------------------------------------

TEST(LintFixtures, WallClockTriggersOnce) {
    const auto findings = scan_fixture("wall_clock.cpp", "src/sim/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleWallClock);
    EXPECT_EQ(findings[0].line, 7);
}

TEST(LintFixtures, RawRandomTriggersOnce) {
    const auto findings = scan_fixture("raw_random.cpp", "src/gcs/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleRawRandom);
}

TEST(LintFixtures, GetenvTriggersOnce) {
    const auto findings = scan_fixture("env_read.cpp", "src/net/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleGetenv);
}

TEST(LintFixtures, UnorderedContainerTriggersOnce) {
    const auto findings = scan_fixture("unordered_iter.cpp", "src/orb/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleUnordered);
}

TEST(LintFixtures, PointerKeyTriggersOnce) {
    const auto findings = scan_fixture("pointer_key.cpp", "src/invocation/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRulePointerKey);
}

TEST(LintFixtures, FloatTriggersOnce) {
    const auto findings = scan_fixture("float_math.cpp", "src/obs/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleFloatSim);
}

TEST(LintFixtures, LayeringTriggersOnce) {
    const auto findings = scan_fixture("layering.cpp", "src/sim/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleLayerDag);
    EXPECT_EQ(findings[0].line, 3);  // the orb include, not the util one
}

TEST(LintFixtures, MetricNameTriggersOnce) {
    const auto findings = scan_fixture("metric_literal.cpp", "src/gcs/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleMetricName);
    EXPECT_EQ(findings[0].line, 9);
}

TEST(LintFixtures, MetricNameScopedToSrcAndExemptsNameTable) {
    const std::string content = read_fixture("metric_literal.cpp");
    // The central table itself may (must) spell the literals.
    EXPECT_TRUE(scan_source("src/obs/names.hpp", content).empty());
    // Tests / tools / benches may assert on literal names freely.
    EXPECT_TRUE(scan_source("tests/fixture.cpp", content).empty());
    EXPECT_TRUE(scan_source("tools/fixture.cpp", content).empty());
    EXPECT_TRUE(scan_source("bench/fixture.cpp", content).empty());
}

TEST(LintFixtures, RawTimerTriggersOnce) {
    const auto findings = scan_fixture("raw_timer.cpp", "src/gcs/fixture.cpp");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleRawTimer);
    EXPECT_EQ(findings[0].line, 12);
}

TEST(LintFixtures, MoveInCallTriggersOncePerCall) {
    const auto findings = scan_fixture("move_in_call.cpp", "src/orb/fixture.cpp");
    ASSERT_EQ(findings.size(), 3u);
    for (const auto& f : findings) EXPECT_EQ(f.rule, kRuleMoveInCall);
    EXPECT_EQ(findings[0].line, 7);
    EXPECT_EQ(findings[1].line, 11);
    EXPECT_EQ(findings[2].line, 16);
}

// --- clean and suppression fixtures --------------------------------------

TEST(LintFixtures, CleanFixturePasses) {
    EXPECT_TRUE(scan_fixture("clean.cpp", "src/sim/fixture.cpp").empty());
}

TEST(LintFixtures, WellFormedSuppressionSilencesFinding) {
    EXPECT_TRUE(scan_fixture("suppressed.cpp", "src/gcs/fixture.cpp").empty());
}

TEST(LintFixtures, SuppressionWithoutReasonIsRejectedAndDoesNotSuppress) {
    const auto findings = scan_fixture("bad_suppression.cpp", "src/gcs/fixture.cpp");
    ASSERT_EQ(findings.size(), 2u);  // sorted by line: the marker, then the map
    EXPECT_EQ(findings[0].rule, kRuleBadSuppression);
    EXPECT_EQ(findings[1].rule, kRuleUnordered);
}

// --- scoping: the same source is fine where the rule is out of scope ------

TEST(LintScoping, UnorderedContainerAllowedOutsideProtocolDirs) {
    const std::string content = read_fixture("unordered_iter.cpp");
    EXPECT_TRUE(scan_source("src/util/fixture.cpp", content).empty());
    EXPECT_TRUE(scan_source("tests/fixture.cpp", content).empty());
}

TEST(LintScoping, RawTimerScopedToProcessCode) {
    const std::string content = read_fixture("raw_timer.cpp");
    for (const char* dir : {"src/invocation/", "src/replication/", "src/newtop/"}) {
        EXPECT_EQ(scan_source(std::string(dir) + "fixture.cpp", content).size(), 1u) << dir;
    }
    // The engine, the ORB (home of ProcessTimer) and the drivers schedule
    // directly.
    EXPECT_TRUE(scan_source("src/sim/fixture.cpp", content).empty());
    EXPECT_TRUE(scan_source("src/orb/fixture.cpp", content).empty());
    EXPECT_TRUE(scan_source("src/fuzz/fixture.cpp", content).empty());
    EXPECT_TRUE(scan_source("tests/fixture.cpp", content).empty());
}

TEST(LintScoping, RawRandomSanctionedInUtil) {
    const std::string content = read_fixture("raw_random.cpp");
    EXPECT_TRUE(scan_source("src/util/fixture.cpp", content).empty());
}

TEST(LintScoping, WallClockBannedEvenInTestsAndBench) {
    const std::string content = read_fixture("wall_clock.cpp");
    EXPECT_EQ(scan_source("tests/fixture.cpp", content).size(), 1u);
    EXPECT_EQ(scan_source("bench/fixture.cpp", content).size(), 1u);
}

// --- seeded mutations: the exact edits a future PR might make ------------

/// Reintroducing a hash-ordered sweep in gcs/ must be caught *statically*,
/// whether or not any runtime determinism test happens to sample a diverging
/// layout.  (libstdc++'s unordered_map iterates identically for identical
/// insertion sequences, so runtime same-seed tests can miss this class.)
TEST(LintMutations, UnorderedSweepInGcsIsCaught) {
    const std::string mutated =
        "#include \"gcs/ordering.hpp\"\n"
        "namespace newtop {\n"
        "void Sequencer::sweep() {\n"
        "    std::unordered_map<MemberId, PendingRef> stale;\n"
        "    for (const auto& [member, ref] : stale) retransmit(member, ref);\n"
        "}\n"
        "}  // namespace newtop\n";
    const auto findings = scan_source("src/gcs/ordering.cpp", mutated);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleUnordered);
    EXPECT_EQ(findings[0].line, 4);
}

TEST(LintMutations, WallClockSeedInFuzzIsCaught) {
    const std::string mutated =
        "std::uint64_t default_seed() {\n"
        "    return static_cast<std::uint64_t>(std::time(nullptr));\n"
        "}\n";
    const auto findings = scan_source("src/fuzz/scenario.cpp", mutated);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleWallClock);
}

TEST(LintMutations, UpwardIncludeFromOrbIsCaught) {
    const auto findings =
        scan_source("src/orb/orb.cpp", "#include \"gcs/view.hpp\"\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleLayerDag);
}

TEST(LintMutations, DeclaredDependencyEdgesAreAllowed) {
    EXPECT_TRUE(scan_source("src/orb/orb.cpp", "#include \"net/network.hpp\"\n").empty());
    EXPECT_TRUE(scan_source("src/sim/cpu_queue.cpp", "#include \"obs/metrics.hpp\"\n").empty());
    EXPECT_TRUE(scan_source("src/gcs/endpoint.cpp", "#include \"orb/orb.hpp\"\n").empty());
}

// --- hot-path allocation discipline ---------------------------------------

TEST(LintHotAlloc, EveryBannedConstructFires) {
    const auto findings = scan_fixture("hot_alloc.cpp", "src/serial/fixture.cpp");
    ASSERT_EQ(findings.size(), 5u);
    for (const auto& f : findings) EXPECT_EQ(f.rule, kRuleHotAlloc);
}

TEST(LintHotAlloc, ReservedGrowthAndBorrowedStringsAreClean) {
    EXPECT_TRUE(scan_fixture("hot_alloc_clean.cpp", "src/serial/fixture.cpp").empty());
}

TEST(LintHotAlloc, ReasonedSuppressionSilences) {
    EXPECT_TRUE(scan_fixture("hot_alloc_suppressed.cpp", "src/serial/fixture.cpp").empty());
}

TEST(LintHotAlloc, ScopedToHotPathRegionsOnly) {
    const std::string content = read_fixture("hot_alloc.cpp");
    // gcs/ at large is not a hot path; the ordering window is.
    EXPECT_TRUE(scan_source("src/gcs/endpoint.cpp", content).empty());
    EXPECT_EQ(scan_source("src/gcs/ordering.cpp", content).size(), 5u);
    // The discrete-event engine is a hot path as a whole.
    EXPECT_EQ(scan_source("src/sim/scheduler.cpp", content).size(), 5u);
    EXPECT_TRUE(scan_source("src/orb/orb.cpp", content).empty());
}

// --- tokenizer edge cases -------------------------------------------------

TEST(LintTokenizer, CommentsAndStringsDoNotTrigger) {
    const std::string content =
        "// system_clock in a comment\n"
        "/* std::mt19937 in a block comment */\n"
        "const char* s = \"getenv(\\\"HOME\\\") unordered_map\";\n"
        "const char* r = R\"(std::system_clock float)\";\n";
    EXPECT_TRUE(scan_source("src/gcs/strings.cpp", content).empty());
}

TEST(LintTokenizer, MemberNamedLikeBannedFunctionIsFine) {
    // `sched.time(...)` / `obj->clock(...)` are method calls, not libc.
    const std::string content =
        "SimTime t = sched.time();\n"
        "SimTime u = obj->clock(3);\n"
        "SimTime v = Budget::time(7);\n";
    EXPECT_TRUE(scan_source("src/sim/methods.cpp", content).empty());
}

TEST(LintTokenizer, QualifiedLibcTimeIsCaught) {
    EXPECT_EQ(scan_source("src/sim/t.cpp", "auto t = std::time(nullptr);\n").size(), 1u);
    EXPECT_EQ(scan_source("src/sim/t.cpp", "auto t = ::time(nullptr);\n").size(), 1u);
}

TEST(LintTokenizer, SameLineSuppressionWorks) {
    const std::string content =
        "std::unordered_map<int, int> m;  // newtop-lint: allow(unordered-container): never iterated\n";
    EXPECT_TRUE(scan_source("src/gcs/s.cpp", content).empty());
}

TEST(LintTokenizer, SuppressionForWrongRuleDoesNotSilence) {
    const std::string content =
        "// newtop-lint: allow(wall-clock): wrong rule id for the line below\n"
        "std::unordered_map<int, int> m;\n";
    const auto findings = scan_source("src/gcs/s.cpp", content);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kRuleUnordered);
}

TEST(LintTokenizer, FindingsAreSortedAndFormatted) {
    const std::string content =
        "std::unordered_map<int, int> b;\n"
        "std::unordered_set<int> a;\n";
    const auto findings = scan_source("src/gcs/two.cpp", content);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_LT(findings[0].line, findings[1].line);
    EXPECT_EQ(to_string(findings[0]).rfind("src/gcs/two.cpp:1: unordered-container:", 0), 0u);
}

}  // namespace
}  // namespace newtop::lint
