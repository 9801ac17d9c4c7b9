// MUST NOT COMPILE under the tree's flags: a float that meets a double is
// promoted implicitly, which hides that the float already rounded
// (-Werror=double-promotion, root CMakeLists.txt).
int main() {
  float rate = 0.1f;
  const double bill = 3.0 * rate;
  return bill > 0.0 ? 0 : 1;
}
