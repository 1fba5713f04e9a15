#include "obs/analysis/perf_gate.h"

#include <cmath>
#include <map>
#include <sstream>

#include "obs/analysis/json.h"

namespace rgml::obs::analysis {

namespace {

/// A leaf in the flattened view: a number, or an exact-match literal
/// (string/bool/null rendered to text).
struct Leaf {
  bool numeric = false;
  double number = 0.0;
  std::string literal;
};

void flattenInto(const JsonValue& v, const std::string& path,
                 std::map<std::string, Leaf>& out) {
  switch (v.type()) {
    case JsonValue::Type::Object:
      for (const auto& [key, child] : v.members()) {
        flattenInto(child, path.empty() ? key : path + "." + key, out);
      }
      return;
    case JsonValue::Type::Array: {
      std::size_t i = 0;
      for (const JsonValue& child : v.items()) {
        flattenInto(child, path + "." + std::to_string(i), out);
        ++i;
      }
      return;
    }
    case JsonValue::Type::Number:
      out[path] = {true, v.asNumber(), {}};
      return;
    case JsonValue::Type::String:
      out[path] = {false, 0.0, v.asString()};
      return;
    case JsonValue::Type::Bool:
      out[path] = {false, 0.0, v.asBool() ? "true" : "false"};
      return;
    case JsonValue::Type::Null:
      out[path] = {false, 0.0, "null"};
      return;
  }
}

const ToleranceRule* matchRule(const std::vector<ToleranceRule>& rules,
                               const std::string& path) {
  for (const ToleranceRule& r : rules) {
    if (path.compare(0, r.prefix.size(), r.prefix) == 0) return &r;
  }
  return nullptr;
}

}  // namespace

std::vector<ToleranceRule> loadToleranceRules(const JsonValue& root) {
  std::vector<ToleranceRule> rules;
  for (const JsonValue& r : root.at("rules").items()) {
    ToleranceRule rule;
    rule.prefix = r.stringOr("prefix", "");
    if (const JsonValue* ig = r.find("ignore")) rule.ignore = ig->asBool();
    rule.rel = r.numberOr("rel", 0.0);
    rule.abs = r.numberOr("abs", 0.0);
    if (rule.rel < 0.0 || rule.abs < 0.0) {
      throw JsonError("tolerance rule for \"" + rule.prefix +
                      "\": rel/abs must be >= 0");
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

GateResult diffBenchmarks(const JsonValue& baseline, const JsonValue& fresh,
                          const std::vector<ToleranceRule>& rules) {
  std::map<std::string, Leaf> base;
  std::map<std::string, Leaf> next;
  flattenInto(baseline, "", base);
  flattenInto(fresh, "", next);

  GateResult result;
  auto ignored = [&](const std::string& path) {
    const ToleranceRule* rule = matchRule(rules, path);
    return rule != nullptr && rule->ignore;
  };

  for (const auto& [path, b] : base) {
    if (ignored(path)) {
      ++result.ignored;
      continue;
    }
    const auto it = next.find(path);
    if (it == next.end()) {
      GateViolation v;
      v.path = path;
      v.kind = "missing";
      v.baseline = b.numeric ? b.number : 0.0;
      v.detail = "present in baseline, absent in fresh run";
      result.violations.push_back(std::move(v));
      continue;
    }
    ++result.compared;
    const Leaf& f = it->second;
    if (b.numeric != f.numeric ||
        (!b.numeric && b.literal != f.literal)) {
      GateViolation v;
      v.path = path;
      v.kind = "mismatch";
      v.detail = "baseline " +
                 (b.numeric ? jsonNumber(b.number) : "\"" + b.literal + "\"") +
                 " vs fresh " +
                 (f.numeric ? jsonNumber(f.number) : "\"" + f.literal + "\"");
      result.violations.push_back(std::move(v));
      continue;
    }
    if (!b.numeric) continue;
    const ToleranceRule* rule = matchRule(rules, path);
    const double rel = rule != nullptr ? rule->rel : 0.0;
    const double abs = rule != nullptr ? rule->abs : 0.0;
    const double allowed = std::max(rel * std::fabs(b.number), abs);
    const double delta = std::fabs(f.number - b.number);
    if (delta > allowed) {
      GateViolation v;
      v.path = path;
      v.kind = "regression";
      v.baseline = b.number;
      v.fresh = f.number;
      v.allowed = allowed;
      v.detail = "baseline " + jsonNumber(b.number) + " vs fresh " +
                 jsonNumber(f.number) + " (|delta| " + jsonNumber(delta) +
                 " > allowed " + jsonNumber(allowed) + ")";
      result.violations.push_back(std::move(v));
    }
  }

  for (const auto& [path, f] : next) {
    if (base.count(path) != 0) continue;
    if (ignored(path)) {
      ++result.ignored;
      continue;
    }
    GateViolation v;
    v.path = path;
    v.kind = "extra";
    v.fresh = f.numeric ? f.number : 0.0;
    v.detail =
        "absent in baseline (run perf_gate --update-baselines after "
        "intentional schema changes)";
    result.violations.push_back(std::move(v));
  }
  return result;
}

std::string formatGateResult(const GateResult& result,
                             const std::string& label) {
  std::ostringstream os;
  if (result.pass()) {
    os << label << ": OK (" << result.compared << " leaves compared, "
       << result.ignored << " ignored)\n";
    return os.str();
  }
  os << label << ": FAIL — " << result.violations.size()
     << " violation(s) over " << result.compared << " compared leaves\n";
  for (const GateViolation& v : result.violations) {
    os << "  [" << v.kind << "] " << v.path << ": " << v.detail << "\n";
  }
  return os.str();
}

}  // namespace rgml::obs::analysis
