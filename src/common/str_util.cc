#include "common/str_util.h"

#include <cctype>

namespace xnfdb {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

namespace {

bool LikeMatchAt(const std::string& text, size_t ti, const std::string& pat,
                 size_t pi) {
  while (pi < pat.size()) {
    char p = pat[pi];
    if (p == '%') {
      // Collapse runs of '%'.
      while (pi < pat.size() && pat[pi] == '%') ++pi;
      if (pi == pat.size()) return true;
      for (size_t k = ti; k <= text.size(); ++k) {
        if (LikeMatchAt(text, k, pat, pi)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (p != '_' && p != text[ti]) return false;
    ++ti;
    ++pi;
  }
  return ti == text.size();
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  return LikeMatchAt(text, 0, pattern, 0);
}

}  // namespace xnfdb
