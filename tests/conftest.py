from hypothesis import settings

# Draw the same examples on every run, so a test's verdict depends only on
# the code: a run cannot fail on a draw that the previous run never made.
# Derandomizing also turns the example database off. Each test keeps its
# own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
