#include "tools/lint_scanner.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "tools/lint_lex.hpp"
#include "tools/lint_rules.hpp"

namespace newtop::lint {

namespace {

// ---------------------------------------------------------------------------
// Small helpers over the token stream and rule tables.
// ---------------------------------------------------------------------------

template <typename Table>
bool in_table(const Table& table, std::string_view s) {
    for (std::string_view entry : table) {
        if (!entry.empty() && entry == s) return true;
    }
    return false;
}

bool has_prefix_in(std::string_view path, const auto& prefixes) {
    for (std::string_view p : prefixes) {
        if (path.substr(0, p.size()) == p) return true;
    }
    return false;
}

bool is_ident(const Token& t, std::string_view text) {
    return t.kind == TokKind::kIdentifier && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
    return t.kind == TokKind::kPunct && t.text == text;
}

/// Layer of a src/ file ("" when the file is outside src/).
std::string_view layer_of(std::string_view rel_path) {
    constexpr std::string_view kSrc = "src/";
    if (rel_path.substr(0, kSrc.size()) != kSrc) return {};
    const std::string_view rest = rel_path.substr(kSrc.size());
    const std::size_t slash = rest.find('/');
    return slash == std::string_view::npos ? std::string_view{} : rest.substr(0, slash);
}

const LayerDeps* find_layer(std::string_view layer) {
    for (const LayerDeps& entry : kLayerTable) {
        if (entry.layer == layer) return &entry;
    }
    return nullptr;
}

struct Include {
    int line;
    std::string path;
    bool quoted;
};

/// Recognise `# include <...>` / `# include "..."` token runs.
std::vector<Include> find_includes(const Lexed& lx) {
    std::vector<Include> out;
    const auto& t = lx.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind != TokKind::kPunct || t[i].text != "#") continue;
        if (t[i + 1].kind != TokKind::kIdentifier || t[i + 1].text != "include") continue;
        if (t[i + 1].line != t[i].line) continue;
        const Token& arg = t[i + 2];
        if (arg.kind == TokKind::kString && arg.line == t[i].line) {
            out.push_back({arg.line, arg.text, /*quoted=*/true});
            continue;
        }
        if (arg.kind == TokKind::kPunct && arg.text == "<") {
            std::string path;
            for (std::size_t j = i + 3; j < t.size() && t[j].line == t[i].line; ++j) {
                if (t[j].kind == TokKind::kPunct && t[j].text == ">") break;
                path += t[j].text;
            }
            out.push_back({arg.line, std::move(path), /*quoted=*/false});
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

void add(std::vector<Finding>& out, int line, std::string_view rule, std::string message) {
    out.push_back({"", line, std::string(rule), std::move(message)});
}

/// wall-clock / raw-random / getenv: banned identifiers, with the short
/// names (`time`, `clock`) restricted to direct call syntax.
void check_banned_identifiers(std::string_view rel_path, const std::vector<Token>& t,
                              std::vector<Finding>& out) {
    const bool random_sanctioned = has_prefix_in(rel_path, kRandomSanctionedDirs);
    const bool env_sanctioned = has_prefix_in(rel_path, kEnvSanctionedDirs);
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdentifier) continue;
        const std::string& id = t[i].text;
        const Token* prev = i > 0 ? &t[i - 1] : nullptr;
        const Token* prev2 = i > 1 ? &t[i - 2] : nullptr;
        const Token* next = i + 1 < t.size() ? &t[i + 1] : nullptr;
        const bool member_access =
            prev != nullptr && prev->kind == TokKind::kPunct &&
            (prev->text == "." || prev->text == "->");

        if (in_table(kWallClockIds, id)) {
            add(out, t[i].line, kRuleWallClock,
                "'" + id + "' reads host time; use Scheduler::now() / util/time.hpp");
            continue;
        }
        if (in_table(kWallClockCallIds, id) && next != nullptr &&
            next->kind == TokKind::kPunct && next->text == "(" && !member_access) {
            // Qualified calls: std::time(...) and ::time(...) are the libc
            // clock; Foo::time(...) is somebody's method and is fine.
            bool flagged = true;
            if (prev != nullptr && prev->kind == TokKind::kPunct && prev->text == "::") {
                flagged = prev2 == nullptr || prev2->kind != TokKind::kIdentifier ||
                          prev2->text == "std";
            }
            if (flagged) {
                add(out, t[i].line, kRuleWallClock,
                    "'" + id + "(...)' reads host time; use Scheduler::now()");
            }
            continue;
        }
        if (!random_sanctioned && in_table(kRawRandomIds, id) && !member_access) {
            add(out, t[i].line, kRuleRawRandom,
                "'" + id + "' is non-seeded/global randomness; use util/rng.hpp (Rng)");
            continue;
        }
        if (!env_sanctioned && in_table(kEnvIds, id) && !member_access) {
            add(out, t[i].line, kRuleGetenv,
                "'" + id + "' makes behaviour depend on host environment; plumb "
                "configuration through Scenario/options instead");
        }
    }
}

/// raw-timer: process code arms its timers through ProcessTimer only.
void check_raw_timers(std::string_view rel_path, const std::vector<Token>& t,
                      std::vector<Finding>& out) {
    if (!has_prefix_in(rel_path, kProcessCodeDirs)) return;
    for (const Token& tok : t) {
        if (tok.kind == TokKind::kIdentifier && in_table(kRawTimerIds, tok.text)) {
            add(out, tok.line, kRuleRawTimer,
                "'" + tok.text + "' arms a timer nothing owns; process code keeps each timer "
                "as a ProcessTimer (orb/process_timer.hpp) in the state it serves");
        }
    }
}

/// move-in-call: within one call's argument list, an argument that reads
/// `x.` or `x->` while a lambda init-capture in another argument moves from
/// `x` (`name = std::move(x)`).  Applies everywhere.
void check_move_in_call(const std::vector<Token>& t, std::vector<Finding>& out) {
    for (std::size_t open = 0; open < t.size(); ++open) {
        if (!is_punct(t[open], "(") || open == 0 || t[open - 1].kind != TokKind::kIdentifier) {
            continue;
        }
        // Split the argument list at depth-one commas.
        std::vector<std::pair<std::size_t, std::size_t>> args;  // [begin, end)
        int depth = 0;
        std::size_t begin = open + 1;
        std::size_t close = open;
        for (std::size_t i = open; i < t.size(); ++i) {
            const Token& tok = t[i];
            if (tok.kind != TokKind::kPunct) continue;
            if (tok.text == "(" || tok.text == "[" || tok.text == "{") ++depth;
            if (tok.text == ")" || tok.text == "]" || tok.text == "}") {
                if (--depth == 0) {
                    close = i;
                    break;
                }
            }
            if (depth == 1 && tok.text == ",") {
                args.emplace_back(begin, i);
                begin = i + 1;
            }
        }
        if (close == open) continue;
        args.emplace_back(begin, close);
        if (args.size() < 2) continue;
        // Names moved by an init-capture: `= std :: move ( x )` inside `[...]`.
        for (std::size_t a = 0; a < args.size(); ++a) {
            for (std::size_t i = args[a].first; i + 5 < args[a].second; ++i) {
                if (!is_punct(t[i], "=") || !is_ident(t[i + 1], "std") ||
                    !is_punct(t[i + 2], "::") || !is_ident(t[i + 3], "move") ||
                    !is_punct(t[i + 4], "(") || t[i + 5].kind != TokKind::kIdentifier) {
                    continue;
                }
                const std::string& moved = t[i + 5].text;
                for (std::size_t b = 0; b < args.size(); ++b) {
                    if (b == a) continue;
                    for (std::size_t j = args[b].first; j + 1 < args[b].second; ++j) {
                        if (is_ident(t[j], moved) &&
                            (is_punct(t[j + 1], ".") || is_punct(t[j + 1], "->")) &&
                            (j == 0 || (!is_punct(t[j - 1], ".") && !is_punct(t[j - 1], "->")))) {
                            add(out, t[j].line, kRuleMoveInCall,
                                "'" + moved + "' is read in one argument and moved by a lambda "
                                "capture in another; argument order is unspecified, so compute "
                                "the value into a local first");
                        }
                    }
                }
            }
        }
    }
}

/// unordered-container + pointer-key, in protocol/trace-visible directories.
void check_containers(std::string_view rel_path, const std::vector<Token>& t,
                      std::vector<Finding>& out) {
    if (!has_prefix_in(rel_path, kProtocolVisibleDirs)) return;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdentifier) continue;
        const std::string& id = t[i].text;
        const bool unordered = in_table(kUnorderedIds, id);
        if (unordered) {
            add(out, t[i].line, kRuleUnordered,
                "'" + id + "' iteration order is hash/layout defined and this directory is "
                "protocol/trace-visible; use std::map/std::set or a sorted vector");
        }
        if (!unordered && !in_table(kOrderedAssocIds, id)) continue;

        // pointer-key: std::map<Key, ...> / std::set<Key> whose key type
        // contains a raw or smart pointer orders by address — nondeterministic
        // across runs.  Only the std-qualified form is checked, which is the
        // only form this codebase uses.
        const bool std_qualified = i >= 2 && t[i - 1].kind == TokKind::kPunct &&
                                   t[i - 1].text == "::" &&
                                   t[i - 2].kind == TokKind::kIdentifier && t[i - 2].text == "std";
        if (!std_qualified) continue;
        if (i + 1 >= t.size() || t[i + 1].kind != TokKind::kPunct || t[i + 1].text != "<") continue;
        const bool keyed = id == "map" || id == "multimap" || id == "unordered_map" ||
                           id == "unordered_multimap";
        int depth = 1;
        for (std::size_t j = i + 2; j < t.size() && depth > 0; ++j) {
            const Token& tok = t[j];
            if (tok.kind == TokKind::kPunct) {
                if (tok.text == "<") ++depth;
                if (tok.text == ">") --depth;
                if (tok.text == ";" || tok.text == "{") break;  // lost the plot; bail out
                if (keyed && depth == 1 && tok.text == ",") break;  // end of key type
                if (tok.text == "*") {
                    add(out, t[i].line, kRulePointerKey,
                        "std::" + id + " keyed by a pointer orders by address; key by a "
                        "StrongId or stable value instead");
                    break;
                }
            } else if (tok.kind == TokKind::kIdentifier &&
                       (tok.text == "shared_ptr" || tok.text == "unique_ptr" ||
                        tok.text == "weak_ptr")) {
                add(out, t[i].line, kRulePointerKey,
                    "std::" + id + " keyed by a smart pointer compares addresses; key by a "
                    "StrongId or stable value instead");
                break;
            }
        }
    }
}

/// float-sim: `float` anywhere under src/ — sim-time math is integral
/// microseconds plus double-only derived ratios; float invites silent
/// mixed-precision truncation.
void check_float(std::string_view rel_path, const std::vector<Token>& t,
                 std::vector<Finding>& out) {
    if (rel_path.substr(0, kFloatScopeDir.size()) != kFloatScopeDir) return;
    for (const Token& tok : t) {
        if (tok.kind == TokKind::kIdentifier && tok.text == "float") {
            add(out, tok.line, kRuleFloatSim,
                "'float' in simulation code mixes precisions with double sim-time math; "
                "use double (or integral SimTime/SimDuration)");
        }
    }
}

/// metric-name: metric/phase name literals under src/ must come from the
/// central table (src/obs/names.hpp); a typo'd literal would silently fork
/// a new counter or histogram and break profiler reconciliation.
void check_metric_names(std::string_view rel_path, const std::vector<Token>& t,
                        std::vector<Finding>& out) {
    if (rel_path.substr(0, kMetricScopeDir.size()) != kMetricScopeDir) return;
    if (rel_path == kMetricTableFile) return;
    for (const Token& tok : t) {
        if (tok.kind != TokKind::kString) continue;
        for (const std::string_view prefix : kMetricPrefixes) {
            if (std::string_view(tok.text).substr(0, prefix.size()) == prefix) {
                add(out, tok.line, kRuleMetricName,
                    "metric/phase name literal \"" + tok.text +
                        "\" bypasses the central name table; use the obs::metric / "
                        "obs::phase constant from obs/names.hpp");
                break;
            }
        }
    }
}

/// layer-dag: quoted includes from src/<layer>/ must stay within the
/// declared dependency set.
void check_layering(std::string_view rel_path, const std::vector<Include>& includes,
                    std::vector<Finding>& out) {
    const std::string_view layer = layer_of(rel_path);
    if (layer.empty()) return;
    const LayerDeps* deps = find_layer(layer);
    if (deps == nullptr) {
        add(out, 1, kRuleLayerDag,
            "directory src/" + std::string(layer) + "/ is not declared in "
            "tools/lint_rules.hpp kLayerTable; add it with its allowed dependencies");
        return;
    }
    for (const Include& inc : includes) {
        if (!inc.quoted) continue;  // system headers are not layer edges
        const std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos) continue;  // same-directory include
        const std::string target = inc.path.substr(0, slash);
        if (target == layer) continue;
        if (find_layer(target) == nullptr) {
            add(out, inc.line, kRuleLayerDag,
                "include \"" + inc.path + "\" targets '" + target +
                    "', which is not a declared layer (tools/lint_rules.hpp)");
            continue;
        }
        if (!in_table(deps->deps, target)) {
            add(out, inc.line, kRuleLayerDag,
                "layer '" + std::string(layer) + "' may not include from '" + target +
                    "' (allowed per tools/lint_rules.hpp: own layer + declared deps)");
        }
    }
}

/// hot-path-alloc: in the arena-CDR hot path (kHotPathPrefixes), ban
/// `new`, make_unique / make_shared, std::function, by-value std::string,
/// and push_back / emplace_back growth in functions with no visible
/// reserve().
void check_hot_alloc(std::string_view rel_path, const std::vector<Token>& t,
                     std::vector<Finding>& out) {
    if (!has_prefix_in(rel_path, kHotPathPrefixes)) return;

    // Brace frames: each `{` is either a function body (allocation scope for
    // the reserve() heuristic) or a plain block (control flow, class,
    // namespace, init list) that growth checks look *through*.
    struct Frame {
        bool is_function;
        bool saw_reserve;
    };
    std::vector<Frame> frames;
    std::vector<std::size_t> open_parens;          // indices of unmatched '('
    std::map<std::size_t, std::size_t> partner_of;  // ')' index -> '(' index

    for (std::size_t i = 0; i < t.size(); ++i) {
        const Token& tok = t[i];
        if (is_punct(tok, "(")) {
            open_parens.push_back(i);
            continue;
        }
        if (is_punct(tok, ")")) {
            if (!open_parens.empty()) {
                partner_of[i] = open_parens.back();
                open_parens.pop_back();
            }
            continue;
        }
        if (is_punct(tok, "{")) {
            // Function body iff the brace follows a `)` (allowing const /
            // noexcept / override / final between) whose `(` is not a
            // control-flow head.
            bool is_function = false;
            std::size_t j = i;
            int skipped = 0;
            while (j > 0 && skipped < 4 && t[j - 1].kind == TokKind::kIdentifier &&
                   (t[j - 1].text == "const" || t[j - 1].text == "noexcept" ||
                    t[j - 1].text == "override" || t[j - 1].text == "final")) {
                --j;
                ++skipped;
            }
            if (j > 0 && is_punct(t[j - 1], ")")) {
                const auto p = partner_of.find(j - 1);
                if (p != partner_of.end()) {
                    const std::size_t open = p->second;
                    const bool control =
                        open > 0 && t[open - 1].kind == TokKind::kIdentifier &&
                        (t[open - 1].text == "if" || t[open - 1].text == "for" ||
                         t[open - 1].text == "while" || t[open - 1].text == "switch" ||
                         t[open - 1].text == "catch");
                    is_function = !control;
                }
            }
            frames.push_back({is_function, false});
            continue;
        }
        if (is_punct(tok, "}")) {
            if (!frames.empty()) frames.pop_back();
            continue;
        }
        if (tok.kind != TokKind::kIdentifier) continue;

        const Token* prev = i > 0 ? &t[i - 1] : nullptr;
        const Token* prev2 = i > 1 ? &t[i - 2] : nullptr;
        const Token* next = i + 1 < t.size() ? &t[i + 1] : nullptr;
        const bool std_qualified = prev != nullptr && is_punct(*prev, "::") && prev2 != nullptr &&
                                   is_ident(*prev2, "std");

        if (tok.text == "reserve" && !frames.empty()) {
            frames.back().saw_reserve = true;
            continue;
        }
        if (tok.text == "new" && (prev == nullptr || !is_ident(*prev, "operator"))) {
            add(out, tok.line, kRuleHotAlloc,
                "'new' allocates on a hot path; use the arena / preallocated storage");
            continue;
        }
        if (in_table(kAllocMakeIds, tok.text)) {
            add(out, tok.line, kRuleHotAlloc,
                "'" + tok.text + "' allocates on a hot path; use the arena / preallocated storage");
            continue;
        }
        if (tok.text == "function" && std_qualified) {
            add(out, tok.line, kRuleHotAlloc,
                "std::function type-erases with heap allocation on a hot path; use a template "
                "parameter or function pointer");
            continue;
        }
        if (tok.text == "string" && std_qualified &&
            (next == nullptr || (!is_punct(*next, "&") && !is_punct(*next, "*")))) {
            add(out, tok.line, kRuleHotAlloc,
                "by-value std::string allocates on a hot path; use std::string_view or a "
                "borrowed buffer");
            continue;
        }
        if (in_table(kAllocGrowthIds, tok.text) && prev != nullptr &&
            (is_punct(*prev, ".") || is_punct(*prev, "->"))) {
            bool reserved = false;
            for (std::size_t f = frames.size(); f-- > 0;) {
                if (frames[f].saw_reserve) {
                    reserved = true;
                    break;
                }
                if (frames[f].is_function) break;
            }
            if (!reserved) {
                add(out, tok.line, kRuleHotAlloc,
                    "'" + tok.text +
                        "' may grow (reallocate) on a hot path and the enclosing function never "
                        "calls reserve(); pre-size the container or suppress with a bound");
            }
        }
    }
}

struct SourceFile {
    std::string rel_path;  // repo-relative, '/'-separated
    std::string content;
};

/// Collect the scannable files under `repo_root`, sorted.
std::vector<SourceFile> gather_sources(const std::filesystem::path& repo_root) {
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    for (std::string_view root : kScanRoots) {
        const fs::path dir = repo_root / root;
        if (!fs::is_directory(dir)) continue;
        for (const auto& entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file()) continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") continue;
            std::string rel = fs::relative(entry.path(), repo_root).generic_string();
            if (has_prefix_in(rel, kExcludedDirs)) continue;
            paths.push_back(std::move(rel));
        }
    }
    // Directory iteration order is filesystem-defined; the lint practises
    // what it preaches and sorts.
    std::sort(paths.begin(), paths.end());

    std::vector<SourceFile> out;
    out.reserve(paths.size());
    for (std::string& rel : paths) {
        std::ifstream in(repo_root / rel, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        out.push_back({std::move(rel), buf.str()});
    }
    return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

std::string to_string(const Finding& f) {
    std::ostringstream os;
    os << f.file << ':' << f.line << ": " << f.rule << ": " << f.message;
    return os.str();
}

std::vector<Finding> scan_source(std::string_view rel_path, std::string_view content) {
    const Lexed lx = lex(content);
    const Suppressions sup = parse_suppressions(lx);

    std::vector<Finding> raw;
    check_banned_identifiers(rel_path, lx.tokens, raw);
    check_containers(rel_path, lx.tokens, raw);
    check_float(rel_path, lx.tokens, raw);
    check_metric_names(rel_path, lx.tokens, raw);
    check_layering(rel_path, find_includes(lx), raw);
    check_hot_alloc(rel_path, lx.tokens, raw);
    check_raw_timers(rel_path, lx.tokens, raw);
    check_move_in_call(lx.tokens, raw);

    std::vector<Finding> out;
    for (Finding& f : raw) {
        const auto it = sup.by_line.find(f.line);
        if (it != sup.by_line.end() && it->second.count(f.rule) != 0) continue;
        out.push_back(std::move(f));
    }
    for (const Finding& f : sup.malformed) out.push_back(f);
    for (Finding& f : out) f.file = std::string(rel_path);
    std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
        return std::tie(a.line, a.rule, a.message) < std::tie(b.line, b.rule, b.message);
    });
    return out;
}

std::vector<Finding> scan_tree(const std::filesystem::path& repo_root) {
    return scan_tree_report(repo_root).findings;
}

TreeReport scan_tree_report(const std::filesystem::path& repo_root) {
    TreeReport report;
    for (const std::string_view rule : kAllRules) report.suppressions[std::string(rule)] = 0;

    std::string table_error;
    if (!layer_table_is_valid(&table_error)) {
        report.findings.push_back(
            {"tools/lint_rules.hpp", 1, std::string(kRuleLayerDag), table_error});
        return report;
    }

    const std::vector<SourceFile> files = gather_sources(repo_root);
    for (const SourceFile& f : files) {
        std::vector<Finding> file_findings = scan_source(f.rel_path, f.content);
        report.findings.insert(report.findings.end(),
                               std::make_move_iterator(file_findings.begin()),
                               std::make_move_iterator(file_findings.end()));
        const Suppressions sup = parse_suppressions(lex(f.content));
        for (const auto& [line, rules] : sup.by_line) {
            for (const std::string& rule : rules) ++report.suppressions[rule];
        }
    }
    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return report;
}

bool layer_table_is_valid(std::string* error) {
    auto fail = [error](std::string msg) {
        if (error != nullptr) *error = std::move(msg);
        return false;
    };
    // Every named dependency must be a declared layer, and no layer may be
    // declared twice.
    for (std::size_t i = 0; i < kLayerTable.size(); ++i) {
        for (std::size_t j = i + 1; j < kLayerTable.size(); ++j) {
            if (kLayerTable[i].layer == kLayerTable[j].layer) {
                return fail("layer '" + std::string(kLayerTable[i].layer) + "' declared twice");
            }
        }
        for (std::string_view dep : kLayerTable[i].deps) {
            if (dep.empty()) continue;
            if (dep == kLayerTable[i].layer) {
                return fail("layer '" + std::string(dep) + "' lists itself as a dependency");
            }
            if (find_layer(dep) == nullptr) {
                return fail("layer '" + std::string(kLayerTable[i].layer) +
                            "' depends on undeclared layer '" + std::string(dep) + "'");
            }
        }
    }
    // Acyclicity via iterative removal of zero-dependency layers (Kahn).
    std::set<std::string_view> remaining;
    for (const LayerDeps& entry : kLayerTable) remaining.insert(entry.layer);
    bool progress = true;
    while (progress && !remaining.empty()) {
        progress = false;
        for (auto it = remaining.begin(); it != remaining.end();) {
            const LayerDeps* deps = find_layer(*it);
            bool ready = true;
            for (std::string_view dep : deps->deps) {
                if (!dep.empty() && remaining.count(dep) != 0) ready = false;
            }
            if (ready) {
                it = remaining.erase(it);
                progress = true;
            } else {
                ++it;
            }
        }
    }
    if (!remaining.empty()) {
        std::string cycle;
        for (std::string_view layer : remaining) {
            if (!cycle.empty()) cycle += ", ";
            cycle += layer;
        }
        return fail("layer dependency table contains a cycle among: " + cycle);
    }
    return true;
}

}  // namespace newtop::lint
