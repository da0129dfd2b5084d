# Write a small checkpoint with fleet_study and check it with the
# out-of-process validator, so a snapshot format bump that is not
# mirrored in tools/validate_snapshot.py fails here.
#
# Usage: cmake -DFLEET_STUDY=<exe> -DPYTHON=<python3>
#              -DVALIDATOR=<validate_snapshot.py> -DDIR=<scratch dir>
#              -P checkpoint_validator.cmake

file(REMOVE_RECURSE "${DIR}")
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "CTG_CHECKPOINT=${DIR}"
            "${FLEET_STUDY}" 4
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fleet_study checkpoint run failed: ${rc}")
endif()
execute_process(
    COMMAND "${PYTHON}" "${VALIDATOR}" "${DIR}"
    RESULT_VARIABLE rc)
file(REMOVE_RECURSE "${DIR}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "validate_snapshot.py rejected the checkpoint")
endif()
