# A snapshot written on one cluster must not crash a restore on another:
# lipsctl refuses it with exit code 2 (bad input) and one line that names the
# scheduler and the reason.
#
#   cmake -DLIPSCTL=<lipsctl> -DWORK_DIR=<scratch dir> -P restore_mismatch.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(run --workload swim --jobs 10 --schedulers lips
        --checkpoint-dir "${WORK_DIR}/snaps")

execute_process(COMMAND "${LIPSCTL}" --nodes 8 ${run}
  RESULT_VARIABLE write_rc OUTPUT_QUIET ERROR_VARIABLE write_err)
if(NOT write_rc EQUAL 0)
  message(FATAL_ERROR "snapshot-writing run failed (${write_rc}): ${write_err}")
endif()

execute_process(COMMAND "${LIPSCTL}" --nodes 10 ${run} --restore
  RESULT_VARIABLE restore_rc OUTPUT_QUIET ERROR_VARIABLE restore_err)
if(NOT restore_rc EQUAL 2)
  message(FATAL_ERROR
    "restore on another topology exited ${restore_rc}, want 2: ${restore_err}")
endif()
if(NOT restore_err MATCHES "lips ckpt: lips: cannot resume: .*machine count mismatch")
  message(FATAL_ERROR "restore refusal does not name scheduler and reason: "
                      "${restore_err}")
endif()
