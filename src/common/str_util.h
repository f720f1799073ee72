// Small string helpers used across modules.

#ifndef XNFDB_COMMON_STR_UTIL_H_
#define XNFDB_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xnfdb {

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

// Splits on `sep`, keeping empty pieces.
std::vector<std::string> Split(const std::string& s, char sep);

// Trims ASCII whitespace on both ends.
std::string Trim(const std::string& s);

// SQL LIKE with '%' and '_' wildcards (case-sensitive on data).
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace xnfdb

#endif  // XNFDB_COMMON_STR_UTIL_H_
