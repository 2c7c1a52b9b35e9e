"""One set-up sample, or one sample of the reference import.

run.py runs this in fresh processes, with src/ on PYTHONPATH:

    python3 perfbench/setup_sample.py              # golaykit set-up
    python3 perfbench/setup_sample.py --reference  # fixed stdlib import

Each prints the seconds of its timed part.  The set-up sample times
`import golaykit` plus `golaykit.load_bundled()`; only `sys` and `time`
are imported before it, so it includes numpy's import.  The reference
imports a fixed set of standard-library modules and does not depend on
golaykit.  It is the same kind of work (unmarshalling, module bodies,
extension loading), so the ratio of the two cancels the swings in
machine speed that a shared machine shows.
"""
import sys
import time

REFERENCE_MODULES = (
    "asyncio", "email.parser", "http.client", "xml.dom.minidom", "decimal",
    "unittest", "argparse", "logging", "sqlite3", "tarfile", "http.server",
    "xml.etree.ElementTree", "csv", "configparser", "smtplib", "imaplib",
    "difflib", "pydoc", "multiprocessing.pool", "concurrent.futures",
    "fractions", "uuid", "doctest", "xmlrpc.client", "mailbox", "calendar")


def main() -> None:
    if sys.argv[1:] == ["--reference"]:
        t0 = time.perf_counter()
        for name in REFERENCE_MODULES:
            __import__(name)
        print(time.perf_counter() - t0)
        return
    t0 = time.perf_counter()
    import golaykit

    golaykit.load_bundled()
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
