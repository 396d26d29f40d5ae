"""``python -m simlint`` — see the package docstring."""

from simlint import main

if __name__ == "__main__":
    raise SystemExit(main())
