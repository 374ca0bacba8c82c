#!/usr/bin/env python3
"""Write the corpus fans as JSON files usable with the coxtoric CLI.

Usage: python scripts/export_corpus.py [output_dir]   (default: ./corpus_fans)
An argument starting with "-" is refused with exit code 2.
"""

import json
import pathlib
import sys

from coxtoric.corpus import corpus_fans
from coxtoric.fans import fan_to_dict


USAGE = "usage: python scripts/export_corpus.py [output_dir]"


def main():
    if len(sys.argv) > 1 and sys.argv[1].startswith("-"):
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "corpus_fans")
    out.mkdir(parents=True, exist_ok=True)
    for name, fan in corpus_fans().items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(fan_to_dict(fan), indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
