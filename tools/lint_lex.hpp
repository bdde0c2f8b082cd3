// Lexing layer of newtop_lint: a comment- and string-aware C++ tokenizer
// plus the suppression-comment parser.  Every rule in lint_scanner.cpp runs
// over this one token stream, so all rules agree on what is code, what is
// comment, and which lines carry suppressions.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint_scanner.hpp"

namespace newtop::lint {

enum class TokKind : std::uint8_t { kIdentifier, kNumber, kString, kPunct };

struct Token {
    TokKind kind;
    std::string text;
    int line;
};

struct Lexed {
    std::vector<Token> tokens;
    std::map<int, std::string> comments;  // line -> concatenated comment text
    std::set<int> code_lines;             // lines that carry at least one token
};

/// Tokenize one translation unit.  String/character literals become single
/// tokens (their contents never trigger identifier rules); comments are
/// collected per line for suppression parsing.
Lexed lex(std::string_view src);

/// Parsed suppression comments: the allow(rule) marker with its mandatory
/// trailing reason (see lint_rules.hpp for the exact spelling).
struct Suppressions {
    std::map<int, std::set<std::string>> by_line;
    std::vector<Finding> malformed;  // bad-suppression findings (never suppressible)
};

Suppressions parse_suppressions(const Lexed& lx);

}  // namespace newtop::lint
