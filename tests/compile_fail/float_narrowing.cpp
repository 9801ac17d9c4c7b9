// MUST NOT COMPILE under the tree's flags: a double stored into a float
// narrows implicitly and rounds (-Werror=float-conversion on GCC,
// -Werror=implicit-float-conversion on clang; root CMakeLists.txt).
int main() {
  double bill = 0.1;
  const float rate = bill;
  return rate > 0.0f ? 0 : 1;
}
