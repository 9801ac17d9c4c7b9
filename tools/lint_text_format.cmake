# lips_lint has one output format, and CI's "Lint annotations" step parses
# it. Its pattern is the `FINDING = r"..."` line of the workflow file, read
# here so the two cannot drift: on a file with findings the tool must exit
# 1, every line it writes to stderr must match the pattern, and their count
# must equal the total it reports on stdout.
#
#   cmake -DLIPS_LINT=<lips_lint> -DFIXTURE=<file> -DCI_FILE=<ci.yml>
#         -P lint_text_format.cmake
file(STRINGS "${CI_FILE}" pattern_lines REGEX "FINDING = r\"")
list(LENGTH pattern_lines n)
if(NOT n EQUAL 1)
  message(FATAL_ERROR "want one FINDING = r\"...\" line in ${CI_FILE}, "
                      "found ${n}")
endif()
string(REGEX REPLACE "^.*FINDING = r\"(.*)\".*$" "\\1" pattern
       "${pattern_lines}")

execute_process(COMMAND "${LIPS_LINT}" "${FIXTURE}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "lips_lint exited ${rc}, want 1:\n${out}${err}")
endif()

# CMake lists split on ';', which a message may contain; the pattern's
# message group takes any character, so ',' stands in for it here.
string(REPLACE ";" "," err "${err}")
string(REGEX MATCHALL "[^\n]+" lines "${err}")
set(findings 0)
foreach(line IN LISTS lines)
  if(NOT line MATCHES "${pattern}")
    message(FATAL_ERROR "stderr line does not match CI's pattern "
                        "${pattern}:\n${line}")
  endif()
  math(EXPR findings "${findings} + 1")
endforeach()
if(findings EQUAL 0 OR NOT out MATCHES "lips-lint: ${findings} finding")
  message(FATAL_ERROR "${findings} finding lines on stderr, but stdout "
                      "says:\n${out}")
endif()
