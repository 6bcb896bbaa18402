#include "index.h"

namespace mcmlint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool IsPunctTok(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool IsIdentTok(const Token& t) { return t.kind == TokenKind::kIdentifier; }

// Keywords and type names that are never function names, call targets, or
// interesting identifier references.
bool IsKeyword(const std::string& text) {
  static const std::set<std::string> kKeywords = {
      "alignas",   "alignof",  "auto",      "bool",       "break",
      "case",      "catch",    "char",      "class",      "co_await",
      "co_return", "co_yield", "const",     "constexpr",  "consteval",
      "constinit", "continue", "decltype",  "default",    "delete",
      "do",        "double",   "else",      "enum",       "explicit",
      "extern",    "false",    "final",     "float",      "for",
      "friend",    "goto",     "if",        "inline",     "int",
      "long",      "mutable",  "namespace", "new",        "noexcept",
      "nullptr",   "operator", "override",  "private",    "protected",
      "public",    "register", "return",    "short",      "signed",
      "sizeof",    "static",   "static_assert", "struct", "switch",
      "template",  "this",     "thread_local", "throw",   "true",
      "try",       "typedef",  "typeid",    "typename",   "union",
      "unsigned",  "using",    "virtual",   "void",       "volatile",
      "while"};
  return kKeywords.count(text) > 0;
}

bool IsGrowthCall(const std::string& text) {
  static const std::set<std::string> kGrowth = {
      "push_back", "emplace_back", "emplace", "emplace_front", "push",
      "push_front", "insert",      "append",  "resize",        "reserve",
      "assign"};
  return kGrowth.count(text) > 0;
}

// Calls that may block or are not async-signal-safe (stdio takes locks and
// allocates).  write()/read() are signal-safe and deliberately absent.
bool IsBlockingCall(const std::string& text) {
  static const std::set<std::string> kBlocking = {
      "sleep_for", "sleep_until", "usleep",  "nanosleep", "sleep",
      "poll",      "select",      "pselect", "epoll_wait", "wait",
      "wait_for",  "wait_until",  "fopen",   "fclose",    "fread",
      "fwrite",    "fprintf",     "printf",  "fflush",    "fputs",
      "puts",      "system",      "popen",   "getline"};
  return kBlocking.count(text) > 0;
}

// The parser.  Walks the token stream once with a namespace/class scope
// stack; recognized function definitions get their bodies scanned for ops,
// calls, refs, and lock acquisitions.
class Indexer {
 public:
  Indexer(const SourceFile& file, FileIndex* out)
      : file_(file), t_(file.tokens), out_(out) {}

  void Run() {
    CollectGuardedVars();
    std::size_t i = 0;
    while (i < t_.size()) {
      const Token& tok = t_[i];
      if (tok.kind == TokenKind::kPunct) {
        if (tok.text == "{") {
          ++depth_;
          ++i;
          continue;
        }
        if (tok.text == "}") {
          --depth_;
          while (!scopes_.empty() && depth_ <= scopes_.back().open_depth) {
            scopes_.pop_back();
          }
          ++i;
          continue;
        }
        if (tok.text == "~" && i + 2 < t_.size() && IsIdentTok(t_[i + 1]) &&
            IsPunctTok(t_[i + 2], "(")) {
          const std::size_t next = TryFunction(i);
          if (next != i) {
            i = next;
            continue;
          }
        }
        ++i;
        continue;
      }
      if (!IsIdentTok(tok)) {
        ++i;
        continue;
      }
      const std::string& text = tok.text;
      if (text == "namespace") {
        i = HandleNamespace(i);
        continue;
      }
      if (text == "class" || text == "struct") {
        i = HandleClass(i);
        continue;
      }
      if (text == "enum") {
        i = SkipEnum(i);
        continue;
      }
      if (text == "using" || text == "typedef") {
        i = SkipToSemi(i);
        continue;
      }
      const std::size_t next = TryFunction(i);
      if (next != i) {
        i = next;
        continue;
      }
      ++i;
    }
    AssignUnorderedIterations();
  }

 private:
  struct Scope {
    std::string name;
    int open_depth;  // brace depth *before* the scope's '{'.
  };
  struct BodyRange {
    int first_line;
    int last_line;
    std::size_t function_index;
  };

  std::set<std::string> SuppressSetFor(int line) const {
    std::set<std::string> out;
    const LineMarkers* m = file_.MarkersFor(line);
    if (m == nullptr) return out;
    if (m->nolint_all) out.insert("*");
    out.insert(m->nolint_rules.begin(), m->nolint_rules.end());
    return out;
  }

  // "// mcmlint: guarded-by(<mutex>)" on a declaration line: the declared
  // name is the last identifier before the first of ';', '=', '{' on that
  // line (so both "int g_x = 0;" and "std::deque<T> q_;" resolve).  The
  // mutex must be a plain identifier -- placeholders like "<mutex>" in
  // documentation that quotes the annotation grammar are not registrations.
  void CollectGuardedVars() {
    for (const auto& [line, markers] : file_.markers) {
      if (markers.guard_names.empty()) continue;
      const std::string& mutex = *markers.guard_names.begin();
      if (mutex.find_first_not_of(
              "abcdefghijklmnopqrstuvwxyz"
              "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") != std::string::npos) {
        continue;
      }
      std::string declared;
      for (const Token& tok : t_) {
        if (tok.line != line) continue;
        if (tok.kind == TokenKind::kPunct &&
            (tok.text == ";" || tok.text == "=" || tok.text == "{")) {
          break;
        }
        if (IsIdentTok(tok) && !IsKeyword(tok.text)) declared = tok.text;
      }
      if (declared.empty()) continue;
      out_->guarded.push_back(GuardedVar{declared, mutex, line});
    }
  }

  std::size_t SkipToSemi(std::size_t i) const {
    while (i < t_.size() && !IsPunctTok(t_[i], ";")) ++i;
    return i < t_.size() ? i + 1 : i;
  }

  // Returns the index just past the matching close for the open punct at
  // `i`, or kNpos when unbalanced.
  std::size_t SkipBalanced(std::size_t i, const char* open,
                           const char* close) const {
    int depth = 1;
    std::size_t k = i + 1;
    while (k < t_.size() && depth > 0) {
      if (IsPunctTok(t_[k], open)) ++depth;
      if (IsPunctTok(t_[k], close)) --depth;
      ++k;
    }
    return depth == 0 ? k : kNpos;
  }

  std::size_t HandleNamespace(std::size_t i) {
    std::size_t j = i + 1;
    std::string name;
    while (j < t_.size() && IsIdentTok(t_[j])) {
      if (!name.empty()) name += "::";
      name += t_[j].text;
      ++j;
      if (j < t_.size() && IsPunctTok(t_[j], "::")) {
        ++j;
        continue;
      }
      break;
    }
    if (j < t_.size() && IsPunctTok(t_[j], "{")) {
      scopes_.push_back(Scope{name, depth_});
      ++depth_;
      return j + 1;
    }
    return SkipToSemi(i);  // Alias or declaration.
  }

  std::size_t HandleClass(std::size_t i) {
    std::size_t j = i + 1;
    if (j >= t_.size() || !IsIdentTok(t_[j])) return i + 1;
    const std::string name = t_[j].text;
    ++j;
    // "struct sigaction action {}" is a variable declaration, not a class
    // definition: a bare identifier right after the name means no body.
    if (j < t_.size() && IsIdentTok(t_[j]) && t_[j].text != "final") {
      return SkipToSemi(i);
    }
    int angle = 0;
    while (j < t_.size()) {
      if (IsPunctTok(t_[j], "<")) ++angle;
      if (IsPunctTok(t_[j], ">") && angle > 0) --angle;
      if (angle == 0) {
        if (IsPunctTok(t_[j], ";") || IsPunctTok(t_[j], "=")) return j + 1;
        if (IsPunctTok(t_[j], "{")) {
          scopes_.push_back(Scope{name, depth_});
          ++depth_;
          return j + 1;
        }
      }
      ++j;
    }
    return j;
  }

  std::size_t SkipEnum(std::size_t i) const {
    std::size_t j = i + 1;
    while (j < t_.size() && !IsPunctTok(t_[j], ";") &&
           !IsPunctTok(t_[j], "{")) {
      ++j;
    }
    if (j < t_.size() && IsPunctTok(t_[j], "{")) {
      const std::size_t past = SkipBalanced(j, "{", "}");
      if (past == kNpos) return t_.size();
      j = past;
    }
    while (j < t_.size() && !IsPunctTok(t_[j], ";")) ++j;
    return j < t_.size() ? j + 1 : j;
  }

  struct Arity {
    int min_args = 0;
    int max_args = 0;
  };

  // Parameter-count range for the list between `open` ('(') and
  // `close_past` (just past the matching ')'): defaulted parameters make
  // the tail optional, "..." accepts anything beyond.  Commas are counted
  // only at top level -- nested parens (function types, lambdas), braces,
  // brackets (lambda captures), and template angles do not split.
  Arity ParamArity(std::size_t open, std::size_t close_past) const {
    Arity a;
    if (close_past <= open + 2) return a;  // "()"
    if (close_past == open + 3 && IsIdentTok(t_[open + 1]) &&
        t_[open + 1].text == "void") {
      return a;  // "(void)"
    }
    int commas = 0, defaults = 0, paren = 0, angle = 0, nest = 0;
    bool variadic = false;
    for (std::size_t k = open + 1; k + 1 < close_past; ++k) {
      const Token& tok = t_[k];
      if (tok.kind != TokenKind::kPunct) continue;
      const std::string& p = tok.text;
      if (p == "(") ++paren;
      else if (p == ")") --paren;
      else if (p == "{" || p == "[") ++nest;
      else if (p == "}" || p == "]") --nest;
      else if (p == "<") ++angle;
      else if (p == ">" && angle > 0) --angle;
      else if (paren == 0 && angle == 0 && nest == 0) {
        if (p == ",") ++commas;
        else if (p == "=") ++defaults;
        else if (p == "." && k + 2 < close_past && IsPunctTok(t_[k + 1], ".") &&
                 IsPunctTok(t_[k + 2], ".")) {
          variadic = true;
        }
      }
    }
    a.max_args = commas + 1;
    a.min_args = a.max_args - defaults;
    if (a.min_args < 0) a.min_args = 0;
    if (variadic) a.max_args = 99;
    return a;
  }

  // Top-level argument count for the call whose '(' is at `open`.
  int CallArgCount(std::size_t open) const {
    if (open + 1 < t_.size() && IsPunctTok(t_[open + 1], ")")) return 0;
    int commas = 0, paren = 1, angle = 0, nest = 0;
    for (std::size_t k = open + 1; k < t_.size() && paren > 0; ++k) {
      const Token& tok = t_[k];
      if (tok.kind != TokenKind::kPunct) continue;
      const std::string& p = tok.text;
      if (p == "(") ++paren;
      else if (p == ")") --paren;
      else if (p == "{" || p == "[") ++nest;
      else if (p == "}" || p == "]") --nest;
      else if (p == "<") ++angle;
      else if (p == ">" && angle > 0) --angle;
      else if (p == "," && paren == 1 && angle == 0 && nest == 0) ++commas;
    }
    return commas + 1;
  }

  // Constructor initializer list: ": member_(expr), member_{expr} ... {".
  // Returns the index of the body '{', or kNpos.
  std::size_t ParseInitList(std::size_t k) const {
    while (true) {
      bool any = false;
      int angle = 0;
      while (k < t_.size() &&
             (IsIdentTok(t_[k]) || IsPunctTok(t_[k], "::") ||
              IsPunctTok(t_[k], "<") || IsPunctTok(t_[k], ">") ||
              IsPunctTok(t_[k], ",") ? (angle > 0 || !IsPunctTok(t_[k], ","))
                                     : false)) {
        if (IsPunctTok(t_[k], "<")) ++angle;
        if (IsPunctTok(t_[k], ">") && angle > 0) --angle;
        any = true;
        ++k;
      }
      if (!any || k >= t_.size()) return kNpos;
      if (IsPunctTok(t_[k], "(")) {
        k = SkipBalanced(k, "(", ")");
      } else if (IsPunctTok(t_[k], "{")) {
        k = SkipBalanced(k, "{", "}");
      } else {
        return kNpos;
      }
      if (k == kNpos || k >= t_.size()) return kNpos;
      if (IsPunctTok(t_[k], ",")) {
        ++k;
        continue;
      }
      if (IsPunctTok(t_[k], "{")) return k;
      return kNpos;
    }
  }

  // Attempts to recognize a function definition whose name chain starts at
  // `i`.  On success scans the body and returns the index past it;
  // otherwise returns `i` unchanged.
  std::size_t TryFunction(std::size_t i) {
    std::size_t j = i;
    std::string name;
    std::string last;
    if (IsPunctTok(t_[j], "~")) {
      if (j + 1 >= t_.size() || !IsIdentTok(t_[j + 1])) return i;
      last = "~" + t_[j + 1].text;
      name = last;
      j += 2;
    } else {
      if (!IsIdentTok(t_[j]) || IsKeyword(t_[j].text)) return i;
      last = t_[j].text;
      name = last;
      j += 1;
    }
    while (j + 1 < t_.size() && IsPunctTok(t_[j], "::")) {
      if (IsIdentTok(t_[j + 1]) && !IsKeyword(t_[j + 1].text)) {
        last = t_[j + 1].text;
        name += "::" + last;
        j += 2;
      } else if (IsPunctTok(t_[j + 1], "~") && j + 2 < t_.size() &&
                 IsIdentTok(t_[j + 2])) {
        last = "~" + t_[j + 2].text;
        name += "::" + last;
        j += 3;
      } else {
        return i;
      }
    }
    if (j >= t_.size() || !IsPunctTok(t_[j], "(")) return i;
    const std::size_t params_end = SkipBalanced(j, "(", ")");
    if (params_end == kNpos) return i;
    const Arity arity = ParamArity(j, params_end);

    // Trailer: cv/ref/noexcept/override/final, a trailing return type, a
    // constructor initializer list, then the body.  Anything else means
    // this was an expression or a plain declaration.
    std::size_t k = params_end;
    while (k < t_.size()) {
      const Token& tok = t_[k];
      if (IsIdentTok(tok) &&
          (tok.text == "const" || tok.text == "noexcept" ||
           tok.text == "override" || tok.text == "final" ||
           tok.text == "mutable" || tok.text == "try")) {
        if (tok.text == "noexcept" && k + 1 < t_.size() &&
            IsPunctTok(t_[k + 1], "(")) {
          k = SkipBalanced(k + 1, "(", ")");
          if (k == kNpos) return i;
        } else {
          ++k;
        }
        continue;
      }
      if (IsPunctTok(tok, "&") || IsPunctTok(tok, "&&")) {
        ++k;
        continue;
      }
      if (IsPunctTok(tok, "->")) {  // Trailing return type.
        ++k;
        int angle = 0;
        while (k < t_.size() &&
               (IsIdentTok(t_[k]) || IsPunctTok(t_[k], "::") ||
                IsPunctTok(t_[k], "<") || IsPunctTok(t_[k], ">") ||
                IsPunctTok(t_[k], "*") || IsPunctTok(t_[k], "&") ||
                (angle > 0 && IsPunctTok(t_[k], ",")))) {
          if (IsPunctTok(t_[k], "<")) ++angle;
          if (IsPunctTok(t_[k], ">") && angle > 0) --angle;
          ++k;
        }
        continue;
      }
      if (IsPunctTok(tok, ":")) {
        const std::size_t body = ParseInitList(k + 1);
        if (body == kNpos) return i;
        k = body;
        continue;  // Lands on '{' below.
      }
      if (IsPunctTok(tok, "{")) {
        return ScanBody(name, t_[i].line, k, arity);
      }
      return i;  // ';', '=', or expression context: not a definition.
    }
    return i;
  }

  std::string Qualify(const std::string& name) const {
    std::string full;
    for (const Scope& scope : scopes_) {
      if (scope.name.empty()) continue;
      full += scope.name;
      full += "::";
    }
    return full + name;
  }

  std::size_t ScanBody(const std::string& name, int sig_line,
                       std::size_t body_open, const Arity& arity) {
    FunctionInfo fn;
    fn.name = Qualify(name);
    fn.line = sig_line;
    fn.min_args = arity.min_args;
    fn.max_args = arity.max_args;
    fn.suppress = SuppressSetFor(sig_line);
    // Contract markers may sit atop a short doc comment; line comments
    // attach markers to their own line, so scan a few lines up.
    for (int line = sig_line - 5; line <= sig_line; ++line) {
      const LineMarkers* m = file_.MarkersFor(line);
      if (m != nullptr) {
        fn.contracts.insert(m->contracts.begin(), m->contracts.end());
      }
    }

    int bdepth = 1;
    std::size_t m = body_open + 1;
    int last_line = t_[body_open].line;
    while (m < t_.size() && bdepth > 0) {
      const Token& tok = t_[m];
      last_line = tok.line;
      if (tok.kind == TokenKind::kPunct) {
        if (tok.text == "{") ++bdepth;
        if (tok.text == "}") --bdepth;
        ++m;
        continue;
      }
      if (!IsIdentTok(tok)) {
        ++m;
        continue;
      }
      ScanIdentifier(fn, m);
      ++m;
    }

    bodies_.push_back(
        BodyRange{sig_line, last_line, out_->functions.size()});
    out_->functions.push_back(std::move(fn));
    return m;
  }

  void AddOp(FunctionInfo& fn, int kind, int line, std::string detail) {
    Op op;
    op.kind = kind;
    op.line = line;
    op.detail = std::move(detail);
    op.suppress = SuppressSetFor(line);
    if (kind == Op::kNondet) {
      const LineMarkers* m = file_.MarkersFor(line);
      if (m != nullptr && m->order_insensitive) {
        op.suppress.insert("mcm-nondet-reach");
      }
    }
    fn.ops.push_back(std::move(op));
  }

  bool PlainOrStd(std::size_t m) const {
    if (m == 0) return true;
    const Token& prev = t_[m - 1];
    if (prev.kind != TokenKind::kPunct) return true;
    if (prev.text == "." || prev.text == "->") return false;
    if (prev.text == "::") {
      return m >= 2 && IsIdentTok(t_[m - 2]) && t_[m - 2].text == "std";
    }
    return true;
  }

  bool ArglessTime(std::size_t m) const {
    const std::size_t a = m + 2;
    if (a >= t_.size()) return false;
    if (IsPunctTok(t_[a], ")")) return true;
    return a + 1 < t_.size() && IsPunctTok(t_[a + 1], ")") &&
           (t_[a].text == "0" ||
            (IsIdentTok(t_[a]) &&
             (t_[a].text == "NULL" || t_[a].text == "nullptr")));
  }

  // For "map<Key, ...>": does Key (the first template argument) contain a
  // raw pointer?  Pointer keys order by allocation address.
  bool FirstTemplateArgHasPointer(std::size_t angle_open) const {
    int depth = 1;
    for (std::size_t k = angle_open + 1; k < t_.size() && depth > 0; ++k) {
      if (IsPunctTok(t_[k], "<")) ++depth;
      if (IsPunctTok(t_[k], ">")) --depth;
      if (depth == 1 && IsPunctTok(t_[k], ",")) return false;
      if (IsPunctTok(t_[k], "*")) return true;
    }
    return false;
  }

  // "lock_guard<std::mutex> lock(outbox_mu_)": the guarded mutex is the
  // last identifier of the first constructor argument.
  std::string LockArgName(std::size_t m) const {
    std::size_t k = m + 1;
    if (k < t_.size() && IsPunctTok(t_[k], "<")) {
      int depth = 1;
      for (++k; k < t_.size() && depth > 0; ++k) {
        if (IsPunctTok(t_[k], "<")) ++depth;
        if (IsPunctTok(t_[k], ">")) --depth;
      }
    }
    if (k < t_.size() && IsIdentTok(t_[k])) ++k;  // The variable name.
    if (k >= t_.size() || !IsPunctTok(t_[k], "(")) return "";
    std::string name;
    for (++k; k < t_.size(); ++k) {
      if (IsPunctTok(t_[k], ",") || IsPunctTok(t_[k], ")")) break;
      if (IsIdentTok(t_[k]) && !IsKeyword(t_[k].text)) name = t_[k].text;
    }
    return name;
  }

  void ScanIdentifier(FunctionInfo& fn, std::size_t m) {
    const std::string& text = t_[m].text;
    const int line = t_[m].line;
    const bool call = m + 1 < t_.size() && IsPunctTok(t_[m + 1], "(");
    const bool member =
        m > 0 && (IsPunctTok(t_[m - 1], ".") || IsPunctTok(t_[m - 1], "->"));

    if (!IsKeyword(text)) {
      const std::set<std::string> sup = SuppressSetFor(line);
      if (sup.count("*") == 0 && sup.count("mcm-guard-check") == 0) {
        fn.refs.emplace(text, line);  // Keeps the first line per name.
      }
    } else {
      if (text == "new") AddOp(fn, Op::kAlloc, line, "new");
      if (text == "throw") AddOp(fn, Op::kAlloc, line, "throw");
      return;
    }

    // Direct nondeterminism sources (mirrors mcm-nondeterminism, plus
    // thread ids and pointer-keyed ordering).
    if ((text == "rand" || text == "srand") && call && PlainOrStd(m)) {
      AddOp(fn, Op::kNondet, line, text + "()");
    } else if (text == "random_device" && PlainOrStd(m)) {
      AddOp(fn, Op::kNondet, line, "std::random_device");
    } else if (text == "time" && call && PlainOrStd(m) && ArglessTime(m)) {
      AddOp(fn, Op::kNondet, line, "time()");
    } else if ((text == "steady_clock" || text == "system_clock" ||
                text == "high_resolution_clock") &&
               m + 2 < t_.size() && IsPunctTok(t_[m + 1], "::") &&
               IsIdentTok(t_[m + 2]) && t_[m + 2].text == "now") {
      AddOp(fn, Op::kNondet, line, text + "::now()");
    } else if (text == "get_id" && call) {
      AddOp(fn, Op::kNondet, line, "thread-id read (get_id)");
    } else if ((text == "map" || text == "set" || text == "multimap" ||
                text == "multiset") &&
               m + 1 < t_.size() && IsPunctTok(t_[m + 1], "<") &&
               FirstTemplateArgHasPointer(m + 1)) {
      AddOp(fn, Op::kNondet, line,
            "pointer-keyed std::" + text + " (orders by address)");
    }

    // Allocation.
    if (call && !member &&
        (text == "malloc" || text == "calloc" || text == "realloc" ||
         text == "free" || text == "strdup" || text == "aligned_alloc")) {
      AddOp(fn, Op::kAlloc, line, text + "()");
    } else if (text == "make_unique" || text == "make_shared") {
      AddOp(fn, Op::kAlloc, line, "std::" + text);
    } else if (call && member && IsGrowthCall(text)) {
      AddOp(fn, Op::kAlloc, line, "." + text + "() (may allocate)");
    }

    // Locking.
    if (text == "lock_guard" || text == "scoped_lock" ||
        text == "unique_lock" || text == "shared_lock") {
      AddOp(fn, Op::kLock, line, "std::" + text);
      const std::string mu = LockArgName(m);
      if (!mu.empty()) fn.locks.insert(mu);
    } else if (call && member &&
               (text == "lock" || text == "try_lock" ||
                text == "lock_shared")) {
      AddOp(fn, Op::kLock, line, "." + text + "()");
      if (m >= 2 && IsIdentTok(t_[m - 2])) fn.locks.insert(t_[m - 2].text);
    }

    // Blocking / non-signal-safe calls.
    if (call && IsBlockingCall(text)) {
      AddOp(fn, Op::kBlocking, line, text + "()");
    }

    // Call sites: record the written qualifier chain; skip std::.
    if (call) {
      std::size_t first = m;
      while (first >= 2 && IsPunctTok(t_[first - 1], "::") &&
             IsIdentTok(t_[first - 2]) && !IsKeyword(t_[first - 2].text)) {
        first -= 2;
      }
      if (t_[first].text == "std") return;
      std::string written;
      for (std::size_t k = first; k <= m; k += 2) {
        if (!written.empty()) written += "::";
        written += t_[k].text;
      }
      CallSite site;
      site.name = std::move(written);
      site.line = line;
      site.member = first > 0 && (IsPunctTok(t_[first - 1], ".") ||
                                  IsPunctTok(t_[first - 1], "->"));
      site.args = CallArgCount(m + 1);
      site.suppress = SuppressSetFor(line);
      fn.calls.push_back(std::move(site));
    }
  }

  // Unordered-container iterations are found by the shared file-level pass
  // (alias tracking is file-scoped) and attributed to the enclosing
  // function here.
  void AssignUnorderedIterations() {
    for (const UnorderedIterHit& hit : FindUnorderedIterations(file_)) {
      if (hit.annotated) continue;  // order-insensitive: sanitized.
      for (const BodyRange& body : bodies_) {
        if (hit.first_line < body.first_line ||
            hit.first_line > body.last_line) {
          continue;
        }
        AddOp(out_->functions[body.function_index], Op::kNondet,
              hit.first_line, "unordered-container iteration (hash order)");
        break;
      }
    }
  }

  const SourceFile& file_;
  const std::vector<Token>& t_;
  FileIndex* out_;
  int depth_ = 0;
  std::vector<Scope> scopes_;
  std::vector<BodyRange> bodies_;
};

}  // namespace

void IndexFile(const SourceFile& file, FileIndex* out) {
  Indexer(file, out).Run();
}

}  // namespace mcmlint
