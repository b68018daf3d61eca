"""Set-up probe: what a qlab command pays before it computes anything.

    python3 perfbench/probe.py REF...

starts the interpreter, imports qlab.cli and resolves each input ref with
objio.resolve, then exits without computing a verdict.  The benchmark times
the whole process from outside.
"""

import sys

from qlab import cli

for ref in sys.argv[1:]:
    cli.objio.resolve(ref)
