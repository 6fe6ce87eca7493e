#include "fuzz/schedule.hpp"

#include <array>
#include <charconv>
#include <sstream>

namespace veridp {
namespace fuzz {

namespace {

struct ClassName {
  MutationClass cls;
  const char* name;
};

constexpr std::array<ClassName, kNumMutationClasses> kClassNames = {{
    {MutationClass::kDropRule, "drop_rule"},
    {MutationClass::kRewriteOutput, "rewrite_output"},
    {MutationClass::kReplaceWithDrop, "replace_with_drop"},
    {MutationClass::kExternalRule, "external_rule"},
    {MutationClass::kIgnorePriority, "ignore_priority"},
    {MutationClass::kRemoveAclEntry, "remove_acl_entry"},
    {MutationClass::kPriorityShuffle, "priority_shuffle"},
    {MutationClass::kAclShuffle, "acl_shuffle"},
    {MutationClass::kInstallLoss, "install_loss"},
    {MutationClass::kReportDrop, "report_drop"},
    {MutationClass::kReportDuplicate, "report_duplicate"},
    {MutationClass::kReportReorder, "report_reorder"},
    {MutationClass::kReportDelay, "report_delay"},
    {MutationClass::kReportCorrupt, "report_corrupt"},
    {MutationClass::kChurn, "churn"},
    {MutationClass::kAclChurn, "acl_churn"},
    {MutationClass::kOddPriority, "odd_priority"},
}};

template <typename T>
bool parse_uint(std::string_view token, T& out) {
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

bool parse_int(std::string_view token, int& out) {
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

/// Splits `line` on single spaces. Empty tokens (doubled spaces) are
/// preserved so malformed input fails parsing instead of being guessed at.
std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t sp = line.find(' ', start);
    if (sp == std::string_view::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, sp - start));
    start = sp + 1;
  }
  return out;
}

}  // namespace

bool is_harmful(MutationClass c) {
  switch (c) {
    case MutationClass::kDropRule:
    case MutationClass::kRewriteOutput:
    case MutationClass::kReplaceWithDrop:
    case MutationClass::kExternalRule:
    case MutationClass::kIgnorePriority:
    case MutationClass::kRemoveAclEntry:
    case MutationClass::kPriorityShuffle:
    case MutationClass::kAclShuffle:
    case MutationClass::kInstallLoss:
      return true;
    case MutationClass::kReportDrop:
    case MutationClass::kReportDuplicate:
    case MutationClass::kReportReorder:
    case MutationClass::kReportDelay:
    case MutationClass::kReportCorrupt:
    case MutationClass::kChurn:
    case MutationClass::kAclChurn:
    case MutationClass::kOddPriority:
      return false;
  }
  return false;
}

const char* to_string(MutationClass c) {
  for (const ClassName& e : kClassNames)
    if (e.cls == c) return e.name;
  return "unknown";
}

std::optional<MutationClass> mutation_class_from(std::string_view name) {
  for (const ClassName& e : kClassNames)
    if (name == e.name) return e.cls;
  return std::nullopt;
}

std::string serialize(const FuzzSchedule& s) {
  std::ostringstream out;
  out << "veridp-fuzz-schedule v1\n";
  out << "seed " << s.seed << "\n";
  out << "topo " << s.topo << "\n";
  out << "rounds " << s.rounds << "\n";
  out << "copies " << s.copies << "\n";
  out << "probe_stride " << s.probe_stride << "\n";
  out << "refine_rules " << s.refine_rules << "\n";
  out << "edge_acls " << s.edge_acls << "\n";
  for (const FuzzAction& a : s.actions) {
    out << "action " << a.round << " " << to_string(a.cls) << " " << a.a
        << " " << a.b << " " << a.c << " " << a.d << "\n";
  }
  return out.str();
}

std::optional<FuzzSchedule> parse_schedule(std::string_view text) {
  FuzzSchedule s;
  s.actions.clear();
  bool header_seen = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (!header_seen) {
      if (line != "veridp-fuzz-schedule v1") return std::nullopt;
      header_seen = true;
      continue;
    }
    const auto tokens = split(line);
    if (tokens.size() == 2 && tokens[0] == "seed") {
      if (!parse_uint(tokens[1], s.seed)) return std::nullopt;
    } else if (tokens.size() == 2 && tokens[0] == "topo") {
      s.topo = std::string(tokens[1]);
    } else if (tokens.size() == 2 && tokens[0] == "rounds") {
      if (!parse_int(tokens[1], s.rounds)) return std::nullopt;
    } else if (tokens.size() == 2 && tokens[0] == "copies") {
      if (!parse_int(tokens[1], s.copies)) return std::nullopt;
    } else if (tokens.size() == 2 && tokens[0] == "probe_stride") {
      if (!parse_uint(tokens[1], s.probe_stride)) return std::nullopt;
    } else if (tokens.size() == 2 && tokens[0] == "refine_rules") {
      if (!parse_uint(tokens[1], s.refine_rules)) return std::nullopt;
    } else if (tokens.size() == 2 && tokens[0] == "edge_acls") {
      if (!parse_uint(tokens[1], s.edge_acls)) return std::nullopt;
    } else if (tokens.size() == 7 && tokens[0] == "action") {
      FuzzAction a;
      const auto cls = mutation_class_from(tokens[2]);
      if (!cls) return std::nullopt;
      a.cls = *cls;
      if (!parse_int(tokens[1], a.round) || !parse_uint(tokens[3], a.a) ||
          !parse_uint(tokens[4], a.b) || !parse_uint(tokens[5], a.c) ||
          !parse_uint(tokens[6], a.d))
        return std::nullopt;
      s.actions.push_back(a);
    } else {
      return std::nullopt;  // unknown or malformed line: refuse, don't guess
    }
  }
  if (!header_seen) return std::nullopt;
  return s;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const char ch : s) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace fuzz
}  // namespace veridp
