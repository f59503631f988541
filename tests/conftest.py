from hypothesis import settings

# Derandomized, so every rerun of the suite draws the same examples; no
# example database is written.
settings.register_profile("polytoep", derandomize=True, database=None, deadline=None)
settings.load_profile("polytoep")
