# Included into dfmkit's own top-level configure through
# CMAKE_PROJECT_dfmkit_INCLUDE (see run.py), so the benchmark driver is
# built with exactly the libraries, flags and options of the repository's
# build. The include is deferred to the end of the top-level
# CMakeLists.txt, when every dfmkit target and directory setting exists;
# deferred arguments expand when the call runs, hence the variable.
set(PERFBENCH_DRIVER_DIR "${CMAKE_CURRENT_LIST_DIR}/driver")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL
  include "${PERFBENCH_DRIVER_DIR}/driver.cmake")
