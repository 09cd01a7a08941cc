#include "la/check_finite.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "la/matrix.h"

namespace subrec::la {

void ReportNonFinite(const Matrix& m, const char* label) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m[i])) {
      const size_t r = m.cols() > 0 ? i / m.cols() : 0;
      const size_t c = m.cols() > 0 ? i % m.cols() : 0;
      SUBREC_CHECK(false) << "non-finite value in " << label << ": entry ("
                          << r << "," << c << ") = " << m[i] << " of "
                          << m.rows() << "x" << m.cols();
    }
  }
}

void ReportNonFinite(const std::vector<double>& v, const char* label) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) {
      SUBREC_CHECK(false) << "non-finite value in " << label << ": entry ["
                          << i << "] = " << v[i] << " of " << v.size();
    }
  }
}

void ReportNonFinite(double x, const char* label) {
  if (!std::isfinite(x)) {
    SUBREC_CHECK(false) << "non-finite value in " << label << ": " << x;
  }
}

}  // namespace subrec::la
