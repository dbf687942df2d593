import run

# Import privfp from this checkout and the benchmark's own modules, as run.py does.
run.import_program()
