"""Cold-start footprint: a process imports networkx only when it calls it.

One study starts many short Python processes: the ``run`` itself, one
spawned worker per shard under ``--jobs``, and the ``query`` and
``report`` commands that read the tables back.  networkx is 285
modules, yet only the graph analyses (the Figure 3 component census,
``graph_metrics``, the detection graph rule) call it, so those functions
import it on first use.  ``numpy.ma`` (13-21 ms of import) stays out of
``run`` and ``run --report`` too: NumPy loads it from plain
``np.unique`` and float ``np.median``, which the run path does not call.
Each check runs in a fresh interpreter, so nothing an earlier test
imported leaks in.
"""

from __future__ import annotations

import json
import subprocess
import sys

from tests.test_checkpoint_resume import REPO, cli_env

#: Child-side helper: the loaded modules of one top-level package.
PRELUDE = """
import json
import sys

def loaded(package):
    return sorted(
        name for name in sys.modules
        if name == package or name.startswith(package + ".")
    )
"""


def probe(body, cwd=REPO):
    """Run ``body`` in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        env=cli_env(), cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_networkx_or_detection():
    found = probe(
        "import repro.cli\n"
        "print(json.dumps([loaded('networkx'), loaded('repro.detection')]))\n"
    )
    assert found == [[], []]


def test_shard_worker_import_loads_no_networkx():
    found = probe(
        "import repro.shard.worker\n"
        "print(json.dumps(loaded('networkx')))\n"
    )
    assert found == []


def test_run_and_query_leave_networkx_unloaded_report_loads_it(tmp_path):
    found = probe(
        "from repro.cli import main\n"
        "codes = [main(['run', '--out', 'study.jsonl', '--store', 'study.db'])]\n"
        "codes.append(main(['query', 'study.db', 'summary']))\n"
        "before_report = loaded('networkx')\n"
        "codes.append(main(['report', 'study.jsonl']))\n"
        "print(json.dumps({'codes': codes, 'before_report': before_report,\n"
        "                  'after_report': bool(loaded('networkx'))}))\n",
        cwd=tmp_path,
    )
    assert found == {"codes": [0, 0, 0], "before_report": [],
                     "after_report": True}


def test_run_and_its_report_leave_numpy_ma_unloaded(tmp_path):
    found = probe(
        "from repro.cli import main\n"
        "codes = [main(['run', '--out', 'study.jsonl'])]\n"
        "after_run = loaded('numpy.ma')\n"
        "codes.append(main(['run', '--out', 'again.jsonl', '--report']))\n"
        "print(json.dumps({'codes': codes, 'after_run': after_run,\n"
        "                  'after_report': loaded('numpy.ma')}))\n",
        cwd=tmp_path,
    )
    assert found == {"codes": [0, 0], "after_run": [], "after_report": []}
