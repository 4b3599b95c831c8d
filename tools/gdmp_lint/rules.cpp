// Rule passes for gdmp_lint. Everything here works on the token stream from
// scan_source(); see lint.h for the rule catalogue and suppression syntax.
// Token-stream utilities shared with the hot-path pass live in tokens.h.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "lint.h"
#include "tokens.h"

namespace gdmp::lint {

namespace detail {

std::size_t matching_close(const std::vector<Token>& tokens, std::size_t at) {
  const std::string& open = tokens[at].text;
  const std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = at; i < tokens.size(); ++i) {
    if (punct_is(tokens[i], open.c_str())) ++depth;
    if (punct_is(tokens[i], close.c_str()) && --depth == 0) return i;
  }
  return std::string::npos;
}

std::string suppression_token(const std::string& rule) {
  if (rule == "callback-lifetime") return "owned-callback";
  if (rule == "shared-cycle") return "keepalive-cycle";
  if (rule == "naked-new") return "owned-new";
  if (rule == "naked-delete") return "owned-delete";
  if (rule == "unordered-iteration" || rule == "unordered-float-accum") {
    return "order-insensitive";
  }
  if (rule == "unused-include") return "keep-include";
  if (rule == "hot-path-alloc") return "hot-alloc";
  if (rule == "handle-overwrite" || rule == "handle-use-after-cancel" ||
      rule == "handle-reschedule-unchecked") {
    return "stale-handle";
  }
  if (rule == "callback-dropped" || rule == "obligation-stored-undrained") {
    return "dropped-ok";
  }
  if (rule == "callback-double-invoke") return "double-ok";
  if (rule == "wallclock" || rule == "raw-random") return rule;
  return "";
}

const std::set<std::string>& known_suppression_tokens() {
  static const std::set<std::string> tokens = {
      "wallclock",       "raw-random", "owned-callback",
      "keepalive-cycle", "owned-new",  "owned-delete",
      "order-insensitive", "keep-include",
      "hot-path",        "hot-alloc",  "stale-handle",
      "dropped-ok",      "double-ok"};
  return tokens;
}

const std::set<std::string>& hot_annotation_tokens() {
  static const std::set<std::string> tokens = {"hot-path", "hot-alloc",
                                               "stale-handle"};
  return tokens;
}

const std::set<std::string>& obligation_annotation_tokens() {
  static const std::set<std::string> tokens = {"dropped-ok", "double-ok"};
  return tokens;
}

const std::set<std::string>& analysis_annotation_tokens() {
  static const std::set<std::string> tokens = [] {
    std::set<std::string> all = hot_annotation_tokens();
    all.insert(obligation_annotation_tokens().begin(),
               obligation_annotation_tokens().end());
    return all;
  }();
  return tokens;
}

void Emitter::finish(bool hot_pass_ran, bool obligation_pass_ran) {
  for (const Suppression& s : scan_.suppressions) {
    if (!known_suppression_tokens().contains(s.token)) {
      findings_.push_back({path_, s.line, "unused-suppression",
                           "unknown suppression token '" + s.token + "'"});
      continue;
    }
    const bool inert =
        (!hot_pass_ran && hot_annotation_tokens().contains(s.token)) ||
        (!obligation_pass_ran &&
         obligation_annotation_tokens().contains(s.token));
    if (!s.used && !inert) {
      findings_.push_back({path_, s.line, "unused-suppression",
                           "'" + s.token +
                               "' suppresses nothing on this or the next "
                               "line — remove it"});
    }
    if (!s.justified) {
      findings_.push_back(
          {path_, s.line, "bare-suppression",
           "'" + s.token +
               "' needs an individual justification after the token"});
    }
  }
}

}  // namespace detail

namespace {

using detail::Emitter;
using detail::Function;
using detail::Lambda;
using detail::CaptureItem;
using detail::ident_is;
using detail::punct_is;
using detail::matching_close;
using detail::statement_start;
using detail::find_functions;
using detail::find_lambdas;
using detail::is_call_keyword;

// ------------------------------------------------------------ helpers

bool is_header(const std::string& path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

// --------------------------------------------------- determinism rules

/// Wall-clock time sources. `time` itself is flagged only when qualified
/// (`std::time` / `::time`), so `SimTime time` members stay legal.
const std::set<std::string>& wallclock_idents() {
  static const std::set<std::string> banned = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get",
      "localtime",     "gmtime",        "mktime",
      "ftime",         "utc_clock",     "file_clock",
      // Formatting/arithmetic over wall-clock values: a Logger timestamp
      // prefix built from any of these would differ across replays.
      "strftime",      "asctime",       "difftime",
      "timegm",
  };
  return banned;
}

const std::set<std::string>& random_idents() {
  static const std::set<std::string> banned = {
      "rand",          "srand",          "rand_r",
      "drand48",       "lrand48",        "mrand48",
      "random_device", "random_shuffle", "mt19937",
      "mt19937_64",    "minstd_rand",    "minstd_rand0",
      "ranlux24",      "ranlux48",       "default_random_engine",
      "knuth_b",
  };
  return banned;
}

void check_determinism(const std::string& path, const FileScan& scan,
                       const LintOptions& options, Emitter& emitter) {
  for (const std::string& allowed : options.determinism_allowlist) {
    if (path.find(allowed) != std::string::npos) return;
  }
  const auto& tokens = scan.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (wallclock_idents().contains(t.text)) {
      emitter.emit("wallclock", t.line,
                   "'" + t.text +
                       "' breaks sim determinism; take time from "
                       "sim::Simulator::now()");
    } else if (random_idents().contains(t.text)) {
      emitter.emit("raw-random", t.line,
                   "'" + t.text +
                       "' breaks sim determinism; draw randomness from "
                       "common::Rng (src/common/random.h)");
    } else if (t.text == "time" && i > 0 && punct_is(tokens[i - 1], "::") &&
               i + 1 < tokens.size() && punct_is(tokens[i + 1], "(")) {
      emitter.emit("wallclock", t.line,
                   "'::time()' breaks sim determinism; take time from "
                   "sim::Simulator::now()");
    }
  }
}

}  // namespace

// ------------------------------------------------------ lambda parsing

namespace detail {
namespace {

bool is_guard_name(const std::string& name) {
  return name.starts_with("alive") || name.starts_with("weak") ||
         name.starts_with("self") || name.starts_with("keep");
}

/// True when `[` at `i` introduces a lambda (expression context before,
/// callable syntax after).
bool is_lambda_intro(const std::vector<Token>& tokens, std::size_t i,
                     std::size_t close) {
  if (close == std::string::npos || close + 1 >= tokens.size()) return false;
  if (i > 0) {
    const Token& prev = tokens[i - 1];
    const bool expr_context =
        punct_is(prev, "(") || punct_is(prev, ",") || punct_is(prev, "=") ||
        punct_is(prev, "{") || punct_is(prev, "}") || punct_is(prev, ";") ||
        punct_is(prev, ":") || punct_is(prev, "?") || punct_is(prev, "&&") ||
        punct_is(prev, "||") || punct_is(prev, "!") ||
        ident_is(prev, "return") || ident_is(prev, "co_return");
    if (!expr_context) return false;
  }
  const Token& next = tokens[close + 1];
  return punct_is(next, "(") || punct_is(next, "{") ||
         ident_is(next, "mutable") || ident_is(next, "noexcept") ||
         punct_is(next, "->") || punct_is(next, "<");
}

}  // namespace

std::vector<Lambda> find_lambdas(const std::vector<Token>& tokens) {
  std::vector<Lambda> lambdas;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!punct_is(tokens[i], "[")) continue;
    const std::size_t close = matching_close(tokens, i);
    if (!is_lambda_intro(tokens, i, close)) continue;

    Lambda lambda;
    lambda.intro = i;
    lambda.close = close;
    lambda.line = tokens[i].line;

    // Body brace: first '{' at paren depth 0 after the capture list
    // (skipping template/parameter lists and specifiers, bounded window).
    int brace_depth = 0;
    for (std::size_t j = close + 1; j < tokens.size() && j < close + 120; ++j) {
      if (punct_is(tokens[j], "(") || punct_is(tokens[j], "<")) ++brace_depth;
      if (punct_is(tokens[j], ")") || punct_is(tokens[j], ">")) --brace_depth;
      // The lexer folds `>>` into one token; in a parameter list it is
      // virtually always two closing template brackets.
      if (punct_is(tokens[j], ">>")) brace_depth -= 2;
      if (punct_is(tokens[j], ";")) break;
      if (brace_depth <= 0 && punct_is(tokens[j], "{")) {
        const std::size_t body_close = matching_close(tokens, j);
        if (body_close != std::string::npos) {
          lambda.body_begin = j;
          lambda.body_end = body_close;
        }
        break;
      }
    }

    // Split the capture list on top-level commas.
    std::vector<std::vector<const Token*>> items(1);
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      const Token& t = tokens[j];
      if (t.kind == TokenKind::kPunct &&
          (t.text == "(" || t.text == "[" || t.text == "{")) {
        ++depth;
      } else if (t.kind == TokenKind::kPunct &&
                 (t.text == ")" || t.text == "]" || t.text == "}")) {
        --depth;
      } else if (depth == 0 && punct_is(t, ",")) {
        items.emplace_back();
        continue;
      }
      items.back().push_back(&t);
    }

    for (const auto& item : items) {
      if (item.empty()) continue;
      CaptureItem capture;
      std::size_t k = 0;
      if (punct_is(*item[0], "&") || punct_is(*item[0], "*")) k = 1;
      if (k >= item.size()) continue;
      if (ident_is(*item[k], "this") && item.size() == k + 1) {
        capture.is_this = true;
        lambda.captures_this = true;
      } else if (item[k]->kind == TokenKind::kIdentifier) {
        capture.name = item[k]->text;
        for (std::size_t m = k + 1; m < item.size(); ++m) {
          if (item[m]->kind == TokenKind::kIdentifier) {
            capture.init_idents.push_back(item[m]->text);
          }
        }
      }
      const bool guard =
          is_guard_name(capture.name) ||
          std::ranges::any_of(capture.init_idents, [](const std::string& id) {
            return is_guard_name(id) || id == "weak_from_this";
          });
      if (guard) lambda.has_guard = true;
      lambda.captures.push_back(std::move(capture));
    }
    lambdas.push_back(std::move(lambda));
  }
  return lambdas;
}

std::size_t statement_start(const std::vector<Token>& tokens, std::size_t at) {
  const std::size_t floor = at > 100 ? at - 100 : 0;
  for (std::size_t i = at; i-- > floor;) {
    if (tokens[i].kind == TokenKind::kPunct &&
        (tokens[i].text == ";" || tokens[i].text == "{" ||
         tokens[i].text == "}")) {
      return i + 1;
    }
  }
  return floor;
}

bool is_call_keyword(const std::string& ident) {
  static const std::set<std::string> keywords = {
      "if",     "for",      "while",  "switch",        "catch",
      "return", "sizeof",   "alignof","decltype",      "static_cast",
      "dynamic_cast",       "const_cast",  "reinterpret_cast",
      "new",    "delete",   "throw",  "co_return",     "co_await",
      "assert", "static_assert",
  };
  return keywords.contains(ident);
}

std::vector<Function> find_functions(const std::vector<Token>& tokens) {
  std::vector<Function> functions;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        is_call_keyword(tokens[i].text) || !punct_is(tokens[i + 1], "(")) {
      continue;
    }
    if (i > 0 && (punct_is(tokens[i - 1], ".") || punct_is(tokens[i - 1], "->"))) {
      continue;  // member call
    }
    const std::size_t params_close = matching_close(tokens, i + 1);
    if (params_close == std::string::npos) continue;
    // Scan past cv/ref/noexcept/override/trailing-return and member-init
    // lists to the body '{'; a ';' or '=' at paren depth 0 means this was a
    // declaration, a call statement or an initializer, not a definition.
    // Leaving the enclosing bracket (a ')' or ']' at depth 0) means it was
    // a call inside an argument list or a lambda capture, e.g.
    // `[r = std::move(r)](...) {` or `: cb_(std::move(cb)) {`. So does a
    // ',' at depth 0, as in `respond(make_error(...), {})`, unless a
    // member-init list (`) : a_(x), b_{x} {`) or a trailing return type
    // (`-> std::pair<int, int> {`) has begun.
    int paren_depth = 0;
    bool commas_allowed = false;
    for (std::size_t k = params_close + 1;
         k < tokens.size() && k < params_close + 400; ++k) {
      if (paren_depth == 0 &&
          (punct_is(tokens[k], ")") || punct_is(tokens[k], "]"))) {
        break;
      }
      if (punct_is(tokens[k], "(")) ++paren_depth;
      if (punct_is(tokens[k], ")")) --paren_depth;
      if (paren_depth > 0) continue;
      if (punct_is(tokens[k], ":") || punct_is(tokens[k], "->")) {
        commas_allowed = true;
      }
      if (punct_is(tokens[k], ";") || punct_is(tokens[k], "=") ||
          punct_is(tokens[k], "}") ||
          (punct_is(tokens[k], ",") && !commas_allowed)) {
        break;
      }
      if (punct_is(tokens[k], "{")) {
        // Member-init braces `: a_{x}` are consumed as nested blocks by the
        // matcher; treating them as the body only shrinks the attributed
        // range, which is safe for this analysis.
        const std::size_t close = matching_close(tokens, k);
        if (close != std::string::npos) {
          functions.push_back({tokens[i].text, tokens[i].line, k, close});
        }
        break;
      }
    }
  }
  return functions;
}

}  // namespace detail

namespace {

// ------------------------------------------------- callback-lifetime

/// Call-like identifiers whose callback arguments outlive the current
/// stack frame (simulator events, rpc completions, i/o completions,
/// handler registrations).
const std::set<std::string>& async_sink_calls() {
  static const std::set<std::string> sinks = {
      "schedule",      "schedule_at",     "call",
      "listen",        "register_method", "set_protocol_handler",
      "subscribe",     "read",            "write",
      "pull",          "push",            "pack",
      "file_size",     "connect",         "publish",
      "replicate",     "enqueue",         "PeriodicTimer",
      "checksum",      "remove_remote",   "transfer_to",
      "replicate_objects", "refresh_index_from", "with_latency",
  };
  return sinks;
}

/// True when the statement window hands its lambda to an async sink:
/// a sink call, or an assignment into an `on_*` handler slot.
bool statement_is_async_sink(const std::vector<Token>& tokens,
                             std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool followed_by_call =
        i + 1 < end && punct_is(tokens[i + 1], "(");
    const bool followed_by_template_call =
        i + 1 < end && punct_is(tokens[i + 1], "<");
    if (async_sink_calls().contains(t.text) &&
        (followed_by_call || followed_by_template_call)) {
      return true;
    }
    if (t.text.starts_with("on_") && i + 1 < end &&
        punct_is(tokens[i + 1], "=")) {
      return true;
    }
  }
  return false;
}

void check_callback_lifetime(const FileScan& scan,
                             const std::vector<Lambda>& lambdas,
                             const std::vector<std::pair<std::size_t, std::size_t>>&
                                 esft_regions,
                             Emitter& emitter) {
  for (const Lambda& lambda : lambdas) {
    if (!lambda.captures_this || lambda.has_guard) continue;
    const std::size_t begin = statement_start(scan.tokens, lambda.intro);
    if (!statement_is_async_sink(scan.tokens, begin, lambda.intro)) continue;
    const bool esft = std::ranges::any_of(
        esft_regions, [&](const auto& region) {
          return lambda.intro >= region.first && lambda.intro < region.second;
        });
    std::string message =
        "lambda captures raw 'this' into an async callback with no "
        "liveness guard (use-after-free if the owner dies first); ";
    message += esft
                   ? "capture 'weak_from_this()' and lock it in the body"
                   : "capture a 'std::weak_ptr<bool> alive' sentinel and "
                     "check alive.expired() first";
    emitter.emit("callback-lifetime", lambda.line, std::move(message));
  }
}

// ----------------------------------------------------- shared-cycle

/// True when `name` was most recently bound from a raw pointer (`T* x` /
/// `auto* x` / `x = y.get()`), which cannot create an ownership cycle.
bool bound_from_raw_pointer(const std::vector<Token>& tokens,
                            std::size_t before, const std::string& name) {
  for (std::size_t i = before; i-- > 0;) {
    if (tokens[i].kind != TokenKind::kIdentifier || tokens[i].text != name) {
      continue;
    }
    if (i + 1 >= tokens.size() || !punct_is(tokens[i + 1], "=")) continue;
    if (i > 0 && punct_is(tokens[i - 1], "*")) return true;
    for (std::size_t j = i + 2; j < tokens.size() && j < i + 16; ++j) {
      if (punct_is(tokens[j], ";")) break;
      if (ident_is(tokens[j], "get")) return true;
    }
    return false;  // nearest binding is a value/shared binding
  }
  return false;
}

void check_shared_cycle(const FileScan& scan,
                        const std::vector<Lambda>& lambdas, Emitter& emitter) {
  const auto& tokens = scan.tokens;
  for (const Lambda& lambda : lambdas) {
    // Only assignments whose `=` immediately precedes the lambda intro:
    // `x->slot = [captures...]`.
    if (lambda.intro == 0 || !punct_is(tokens[lambda.intro - 1], "=")) {
      continue;
    }
    // Walk the member path backwards: IDENT ((-> | .) IDENT)* '='.
    std::vector<std::string> path;
    std::size_t i = lambda.intro - 1;
    while (i >= 2 && tokens[i - 1].kind == TokenKind::kIdentifier &&
           (punct_is(tokens[i - 2], "->") || punct_is(tokens[i - 2], "."))) {
      path.insert(path.begin(), tokens[i - 1].text);
      i -= 2;
    }
    if (i >= 1 && tokens[i - 1].kind == TokenKind::kIdentifier) {
      path.insert(path.begin(), tokens[i - 1].text);
    }
    if (path.size() < 2) continue;  // need at least object.member
    path.pop_back();                // drop the assigned member name

    for (const CaptureItem& capture : lambda.captures) {
      std::vector<std::string> roots = capture.init_idents;
      if (!capture.name.empty() && roots.empty()) roots.push_back(capture.name);
      for (const std::string& root : roots) {
        if (std::ranges::find(path, root) == path.end()) continue;
        if (bound_from_raw_pointer(tokens, lambda.intro, root)) continue;
        emitter.emit(
            "shared-cycle", lambda.line,
            "callback stored on '" + root + "' captures '" + root +
                "' — a shared_ptr ownership cycle; capture a weak_ptr or "
                "break the cycle explicitly when the callback is released");
      }
    }
  }
}

// ------------------------------------------- flow-aware determinism

/// Scheduling sinks for the unordered-iteration rule: calls that feed the
/// simulator event queue or the async transport, so anything executed in
/// container order before them imprints that order on the event schedule.
bool is_scheduling_sink(const std::string& ident) {
  static const std::set<std::string> sinks = {
      "schedule", "schedule_at", "call",    "send",      "write",
      "publish",  "enqueue",     "replicate", "transfer_to", "notify",
      "close",    "cancel",      "post",
  };
  return sinks.contains(ident) || ident.starts_with("send_") ||
         ident.starts_with("close_") || ident.starts_with("schedule_") ||
         ident.starts_with("notify_");
}

/// Functions that reach a scheduling sink directly or through calls to
/// other functions defined in this translation unit (fixed point over the
/// local call graph, matched by name).
std::vector<bool> tainted_functions(const std::vector<Token>& tokens,
                                    const std::vector<Function>& functions) {
  std::set<std::string> names;
  for (const Function& f : functions) names.insert(f.name);

  std::vector<std::set<std::string>> calls(functions.size());
  std::vector<bool> tainted(functions.size(), false);
  for (std::size_t fi = 0; fi < functions.size(); ++fi) {
    const Function& f = functions[fi];
    for (std::size_t i = f.body_begin; i < f.body_end; ++i) {
      if (tokens[i].kind != TokenKind::kIdentifier) continue;
      const bool call_like =
          i + 1 < f.body_end &&
          (punct_is(tokens[i + 1], "(") || punct_is(tokens[i + 1], "<"));
      if (!call_like) continue;
      if (is_scheduling_sink(tokens[i].text)) tainted[fi] = true;
      if (names.contains(tokens[i].text)) calls[fi].insert(tokens[i].text);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < functions.size(); ++fi) {
      if (tainted[fi]) continue;
      for (std::size_t gi = 0; gi < functions.size(); ++gi) {
        if (tainted[gi] && calls[fi].contains(functions[gi].name)) {
          tainted[fi] = changed = true;
          break;
        }
      }
    }
  }
  return tainted;
}

struct UnorderedLoop {
  int line = 0;                 // the `for` keyword's line
  std::string container;        // the unordered name being iterated
  std::size_t body_begin = 0;   // first token of the loop body
  std::size_t body_end = 0;     // one past the last body token
  std::size_t enclosing = std::string::npos;  // index into functions
};

/// Range-for statements whose sequence expression ends in an identifier
/// declared with an unordered container type. `unordered` is the repo-wide
/// declaration set plus this file's `auto x = std::move(member_)` aliases.
std::vector<UnorderedLoop> find_unordered_loops(
    const std::vector<Token>& tokens, const std::vector<Function>& functions,
    const std::set<std::string>& unordered) {
  std::vector<UnorderedLoop> loops;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!ident_is(tokens[i], "for") || !punct_is(tokens[i + 1], "(")) continue;
    const std::size_t close = matching_close(tokens, i + 1);
    if (close == std::string::npos) continue;
    // Top-level ':' separates a range-for declaration from its sequence.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      const Token& t = tokens[j];
      if (t.kind == TokenKind::kPunct &&
          (t.text == "(" || t.text == "[" || t.text == "{")) {
        ++depth;
      } else if (t.kind == TokenKind::kPunct &&
                 (t.text == ")" || t.text == "]" || t.text == "}")) {
        --depth;
      } else if (depth == 0 && punct_is(t, ":")) {
        colon = j;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    std::string last_ident;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (tokens[j].kind == TokenKind::kIdentifier) last_ident = tokens[j].text;
    }
    if (last_ident.empty() || !unordered.contains(last_ident)) continue;

    UnorderedLoop loop;
    loop.line = tokens[i].line;
    loop.container = last_ident;
    if (close + 1 < tokens.size() && punct_is(tokens[close + 1], "{")) {
      const std::size_t body_close = matching_close(tokens, close + 1);
      if (body_close == std::string::npos) continue;
      loop.body_begin = close + 2;
      loop.body_end = body_close;
    } else {
      loop.body_begin = close + 1;
      loop.body_end = loop.body_begin;
      while (loop.body_end < tokens.size() &&
             !punct_is(tokens[loop.body_end], ";")) {
        ++loop.body_end;
      }
    }
    for (std::size_t fi = 0; fi < functions.size(); ++fi) {
      if (i > functions[fi].body_begin && i < functions[fi].body_end &&
          (loop.enclosing == std::string::npos ||
           functions[fi].body_begin > functions[loop.enclosing].body_begin)) {
        loop.enclosing = fi;  // innermost enclosing function
      }
    }
    loops.push_back(std::move(loop));
  }
  return loops;
}

/// This file's `auto x = std::move(unordered_member_)` (or `auto& x = m_`)
/// rebindings, so moved-out locals keep their unordered attribution.
void add_local_unordered_aliases(const std::vector<Token>& tokens,
                                 std::set<std::string>& unordered) {
  bool changed = true;
  while (changed) {  // aliases of aliases
    changed = false;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (!ident_is(tokens[i], "auto")) continue;
      std::size_t j = i + 1;
      while (j < tokens.size() &&
             (punct_is(tokens[j], "&") || punct_is(tokens[j], "*") ||
              ident_is(tokens[j], "const"))) {
        ++j;
      }
      if (j + 1 >= tokens.size() ||
          tokens[j].kind != TokenKind::kIdentifier ||
          !punct_is(tokens[j + 1], "=")) {
        continue;
      }
      const std::string& name = tokens[j].text;
      if (unordered.contains(name)) continue;
      for (std::size_t k = j + 2; k < tokens.size() && k < j + 24; ++k) {
        if (punct_is(tokens[k], ";")) break;
        if (tokens[k].kind == TokenKind::kIdentifier &&
            unordered.contains(tokens[k].text)) {
          unordered.insert(name);
          changed = true;
          break;
        }
      }
    }
  }
}

void check_unordered_iteration(const FileScan& scan, const DeclIndex& decls,
                               Emitter& emitter) {
  const auto& tokens = scan.tokens;
  std::set<std::string> unordered(decls.unordered_names.begin(),
                                  decls.unordered_names.end());
  if (unordered.empty()) return;
  add_local_unordered_aliases(tokens, unordered);

  const std::vector<Function> functions = find_functions(tokens);
  const std::vector<bool> tainted = tainted_functions(tokens, functions);
  const std::set<std::string> floats(decls.float_names.begin(),
                                     decls.float_names.end());

  for (const UnorderedLoop& loop :
       find_unordered_loops(tokens, functions, unordered)) {
    if (loop.enclosing != std::string::npos && tainted[loop.enclosing]) {
      emitter.emit(
          "unordered-iteration", loop.line,
          "iterating unordered container '" + loop.container +
              "' inside '" + functions[loop.enclosing].name +
              "', which reaches a scheduling sink — the event order would "
              "depend on hash order; use std::map/sorted vector, or "
              "annotate order-insensitive with a justification");
    }
    for (std::size_t i = loop.body_begin;
         i < loop.body_end && i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind == TokenKind::kIdentifier &&
          floats.contains(tokens[i].text) &&
          (punct_is(tokens[i + 1], "+=") || punct_is(tokens[i + 1], "-=") ||
           punct_is(tokens[i + 1], "*="))) {
        emitter.emit(
            "unordered-float-accum", tokens[i].line,
            "accumulating floating-point '" + tokens[i].text +
                "' in unordered iteration order over '" + loop.container +
                "' — fp addition is not associative, so the result depends "
                "on hash order; iterate a sorted view or annotate "
                "order-insensitive");
      }
    }
  }
}

// --------------------------------------------------------- hygiene

void check_hygiene(const std::string& path, const FileScan& scan,
                   Emitter& emitter) {
  const auto& tokens = scan.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "new") {
      emitter.emit("naked-new", t.line,
                   "naked 'new'; use std::make_unique/std::make_shared (or "
                   "justify the ownership with a suppression)");
    } else if (t.text == "delete") {
      if (i > 0 && punct_is(tokens[i - 1], "=")) continue;  // = delete
      emitter.emit("naked-delete", t.line,
                   "naked 'delete'; ownership must be RAII-managed");
    } else if (t.text == "using" && i + 1 < tokens.size() &&
               ident_is(tokens[i + 1], "namespace") && is_header(path)) {
      emitter.emit("using-namespace-header", t.line,
                   "'using namespace' in a header leaks into every includer");
    }
  }
  if (is_header(path) && !scan.has_pragma_once) {
    emitter.emit("missing-pragma-once", 1,
                 "header is missing '#pragma once'");
  }
}

// ------------------------------------------------------ esft regions

/// Token ranges [begin, end) lying inside enable_shared_from_this types:
/// inline class bodies and out-of-line `Class::member(...)` definitions.
std::vector<std::pair<std::size_t, std::size_t>> esft_token_regions(
    const FileScan& scan, const std::vector<std::string>& esft_classes) {
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  const auto& tokens = scan.tokens;
  const std::set<std::string> esft(esft_classes.begin(), esft_classes.end());

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // Inline body: class/struct ... enable_shared_from_this ... '{'.
    if (ident_is(tokens[i], "class") || ident_is(tokens[i], "struct")) {
      bool has_esft = false;
      for (std::size_t j = i + 1; j < tokens.size() && j < i + 60; ++j) {
        if (punct_is(tokens[j], "{")) {
          if (has_esft) {
            const std::size_t close = matching_close(tokens, j);
            if (close != std::string::npos) regions.emplace_back(j, close);
          }
          break;
        }
        if (punct_is(tokens[j], ";")) break;
        if (ident_is(tokens[j], "enable_shared_from_this")) has_esft = true;
      }
    }
    // Out-of-line member: EsftClass :: name ( ... ) [...] '{'.
    if (tokens[i].kind == TokenKind::kIdentifier && esft.contains(tokens[i].text) &&
        i + 2 < tokens.size() && punct_is(tokens[i + 1], "::") &&
        tokens[i + 2].kind == TokenKind::kIdentifier) {
      std::size_t j = i + 3;
      // Tolerate further nesting (Outer::Inner::member) and destructors.
      while (j + 1 < tokens.size() &&
             (punct_is(tokens[j], "::") || punct_is(tokens[j], "~"))) {
        ++j;
        if (tokens[j].kind == TokenKind::kIdentifier) ++j;
      }
      if (j >= tokens.size() || !punct_is(tokens[j], "(")) continue;
      const std::size_t params_close = matching_close(tokens, j);
      if (params_close == std::string::npos) continue;
      // Scan past qualifiers / member-init lists to the body brace.
      int paren_depth = 0;
      for (std::size_t k = params_close + 1;
           k < tokens.size() && k < params_close + 400; ++k) {
        if (punct_is(tokens[k], "(")) ++paren_depth;
        if (punct_is(tokens[k], ")")) --paren_depth;
        if (paren_depth > 0) continue;
        if (punct_is(tokens[k], ";")) break;  // a declaration, not a body
        if (punct_is(tokens[k], "{")) {
          const std::size_t close = matching_close(tokens, k);
          if (close != std::string::npos) regions.emplace_back(k, close);
          break;
        }
      }
    }
  }
  return regions;
}

}  // namespace

std::vector<std::string> collect_esft_classes(const FileScan& scan) {
  std::vector<std::string> classes;
  const auto& tokens = scan.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!ident_is(tokens[i], "class") && !ident_is(tokens[i], "struct")) {
      continue;
    }
    // Name: last identifier of the (possibly qualified) declarator.
    std::string name;
    std::size_t j = i + 1;
    while (j < tokens.size() && (tokens[j].kind == TokenKind::kIdentifier ||
                                 punct_is(tokens[j], "::"))) {
      if (tokens[j].kind == TokenKind::kIdentifier) {
        if (tokens[j].text == "final") break;
        name = tokens[j].text;
      }
      ++j;
    }
    if (name.empty()) continue;
    bool has_esft = false;
    for (; j < tokens.size() && j < i + 60; ++j) {
      if (punct_is(tokens[j], "{") || punct_is(tokens[j], ";")) break;
      if (ident_is(tokens[j], "enable_shared_from_this")) has_esft = true;
    }
    if (has_esft) classes.push_back(name);
  }
  return classes;
}

std::vector<std::string> collect_unordered_names(const FileScan& scan) {
  static const std::set<std::string> unordered_types = {
      "unordered_map",      "unordered_set",  "unordered_multimap",
      "unordered_multiset", "UnorderedMap",   "UnorderedSet",
  };
  std::vector<std::string> names;
  const auto& tokens = scan.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        !unordered_types.contains(tokens[i].text) ||
        !punct_is(tokens[i + 1], "<")) {
      continue;
    }
    // Walk the template argument list; `>>` closes two levels at once.
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < tokens.size(); ++j) {
      if (tokens[j].kind != TokenKind::kPunct) continue;
      if (tokens[j].text == "<") ++depth;
      if (tokens[j].text == ">") --depth;
      if (tokens[j].text == ">>") depth -= 2;
      if (depth <= 0) break;
    }
    // The declared name: next identifier, past `&` / `*` / `const`.
    for (++j; j < tokens.size() && j < i + 80; ++j) {
      if (punct_is(tokens[j], "&") || punct_is(tokens[j], "*") ||
          ident_is(tokens[j], "const")) {
        continue;
      }
      if (tokens[j].kind == TokenKind::kIdentifier) {
        names.push_back(tokens[j].text);
      }
      break;  // anything else: an unnamed use (return type, temporary)
    }
  }
  return names;
}

std::vector<std::string> collect_float_names(const FileScan& scan) {
  std::vector<std::string> names;
  const auto& tokens = scan.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!ident_is(tokens[i], "double") && !ident_is(tokens[i], "float")) {
      continue;
    }
    if (tokens[i + 1].kind != TokenKind::kIdentifier) continue;
    // A following '(' would make this a function returning double.
    const Token& after = tokens[i + 2];
    if (punct_is(after, "=") || punct_is(after, ";") || punct_is(after, ",") ||
        punct_is(after, ")") || punct_is(after, "{")) {
      names.push_back(tokens[i + 1].text);
    }
  }
  return names;
}

void lint_file(const std::string& path, const FileScan& scan,
               const DeclIndex& decls, const LintOptions& options,
               std::vector<Finding>& findings) {
  Emitter emitter(path, scan, findings);
  check_determinism(path, scan, options, emitter);
  const std::vector<Lambda> lambdas = find_lambdas(scan.tokens);
  const auto esft_regions = esft_token_regions(scan, decls.esft_classes);
  check_callback_lifetime(scan, lambdas, esft_regions, emitter);
  check_shared_cycle(scan, lambdas, emitter);
  check_unordered_iteration(scan, decls, emitter);
  check_hygiene(path, scan, emitter);
  emitter.finish(options.hot_paths, options.obligations);
}

std::vector<Finding> run_lint(const std::vector<std::string>& files,
                              const LintOptions& options,
                              IncludeGraph* graph_out,
                              HotPathReport* hot_out,
                              ObligationReport* obligation_out) {
  std::vector<Finding> findings;
  std::vector<std::pair<std::string, FileScan>> scans;
  DeclIndex decls;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      findings.push_back({path, 0, "io-error", "cannot read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    scans.emplace_back(path, scan_source(buffer.str()));
    const FileScan& scan = scans.back().second;
    for (std::string& name : collect_esft_classes(scan)) {
      decls.esft_classes.push_back(std::move(name));
    }
    for (std::string& name : collect_unordered_names(scan)) {
      decls.unordered_names.push_back(std::move(name));
    }
    for (std::string& name : collect_float_names(scan)) {
      decls.float_names.push_back(std::move(name));
    }
  }
  // The graph and hot-path passes run first so the suppressions they
  // honour are already marked used when the per-file unused-suppression
  // accounting runs.
  lint_include_graph(scans, options, findings, graph_out);
  if (options.hot_paths) {
    lint_hot_paths(scans, options, findings, hot_out);
  }
  if (options.obligations) {
    lint_obligations(scans, options, findings, obligation_out);
  }
  for (const auto& [path, scan] : scans) {
    lint_file(path, scan, decls, options, findings);
  }
  if (options.hot_paths && hot_out != nullptr) {
    // Audit trail: every hot-family annotation that fired, with its
    // justification (collected after the per-file pass so `used` is final).
    for (const auto& [path, scan] : scans) {
      for (const Suppression& s : scan.suppressions) {
        if (s.used && detail::hot_annotation_tokens().contains(s.token)) {
          hot_out->justifications.push_back(
              {path, s.line, s.token, s.justification});
        }
      }
    }
    std::ranges::sort(
        hot_out->justifications, [](const auto& a, const auto& b) {
          return std::tie(a.file, a.line, a.token) <
                 std::tie(b.file, b.line, b.token);
        });
  }
  if (options.obligations && obligation_out != nullptr) {
    // Same audit trail for the obligation annotation family.
    for (const auto& [path, scan] : scans) {
      for (const Suppression& s : scan.suppressions) {
        if (s.used &&
            detail::obligation_annotation_tokens().contains(s.token)) {
          obligation_out->justifications.push_back(
              {path, s.line, s.token, s.justification});
        }
      }
    }
    std::ranges::sort(
        obligation_out->justifications, [](const auto& a, const auto& b) {
          return std::tie(a.file, a.line, a.token) <
                 std::tie(b.file, b.line, b.token);
        });
  }
  std::ranges::sort(findings, [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return findings;
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Promote through unsigned char: a raw (possibly signed) char
          // would sign-extend into an 8-digit escape — invalid JSON.
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_findings_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ",";
    out += "\n  {\"file\": \"" + json_escape(f.file) + "\", \"line\": " +
           std::to_string(f.line) + ", \"rule\": \"" + json_escape(f.rule) +
           "\", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace gdmp::lint
