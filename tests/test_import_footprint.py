"""Cold-start footprint: each process imports only what its command runs.

One study starts many short Python processes: the ``run`` itself, one
spawned worker per shard under ``--jobs``, and the ``query`` and
``report`` commands that read the tables back.  Package ``__init__``
modules import nothing (``repro.store`` keeps its re-exports), and the
CLI imports each subsystem inside the command or flag that uses it, so:

* ``import repro.cli`` and a plain ``run`` load none of the store, shard
  or checkpoint packages, the fault injector, the resilient client, the
  run manifest, the event trace, CSV export, the dashboard, the paper
  comparison or the graph metrics, nor ``sqlite3`` or ``multiprocessing``;
* ``run --checkpoint-dir D --store S`` loads the checkpoint and store
  packages, but not the shard package or ``multiprocessing``;
* the linter loads neither NumPy nor any runtime ``repro`` module;
* a shard worker loads neither the store nor the analyses nor ``core``.

networkx is 285 modules, yet only the graph analyses (the Figure 3
component census, ``graph_metrics``, the detection graph rule) call it,
so those functions import it on first use.  ``numpy.ma`` (13-21 ms of
import) stays out of ``run`` and ``run --report`` too: NumPy loads it
from plain ``np.unique`` and float ``np.median``, which the run path
does not call.  Each check runs in a fresh interpreter, so nothing an
earlier test imported leaks in.
"""

from __future__ import annotations

import json
import subprocess
import sys

from tests.test_checkpoint_resume import REPO, cli_env

#: Packages and modules a plain ``run`` never calls into.
OFF_RUN_PATH = (
    "repro.store",
    "repro.shard",
    "repro.ckpt",
    "repro.osn.faults",
    "repro.osn.resilient",
    "repro.obs.manifest",
    "repro.obs.trace",
    "repro.analysis.export",
    "repro.honeypot.dashboard",
    "repro.core.comparison",
    "repro.osn.metrics",
    "sqlite3",
    "multiprocessing",
)

#: Child-side helpers: the loaded modules of some packages or modules,
#: and the off-path set above.
PRELUDE = f"""
import json
import sys

OFF_RUN_PATH = {OFF_RUN_PATH!r}

def loaded(*packages):
    return sorted(
        name for name in sys.modules
        if any(name == p or name.startswith(p + ".") for p in packages)
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


def test_cli_import_loads_nothing_off_the_run_path():
    found = probe(
        "import repro.cli\n"
        "print(json.dumps(loaded(*OFF_RUN_PATH)))\n"
    )
    assert found == []


def test_plain_run_loads_nothing_off_the_run_path(tmp_path):
    found = probe(
        "from repro.cli import main\n"
        "code = main(['run', '--out', 'study.jsonl'])\n"
        "print(json.dumps({'code': code, 'loaded': loaded(*OFF_RUN_PATH)}))\n",
        cwd=tmp_path,
    )
    assert found == {"code": 0, "loaded": []}


def test_checkpointed_store_run_loads_ckpt_and_store_only(tmp_path):
    found = probe(
        "from repro.cli import main\n"
        "code = main(['run', '--out', 'study.jsonl', '--checkpoint-dir', 'ck',\n"
        "             '--store', 'study.db'])\n"
        "print(json.dumps({'code': code,\n"
        "                  'ckpt': 'repro.ckpt.manager' in sys.modules,\n"
        "                  'store': 'repro.store.store' in sys.modules,\n"
        "                  'shard': loaded('repro.shard', 'multiprocessing')}))\n",
        cwd=tmp_path,
    )
    assert found == {"code": 0, "ckpt": True, "store": True, "shard": []}


def test_lint_import_loads_no_numpy_or_runtime_module():
    found = probe(
        "import repro.lint.cli\n"
        "runtime = [name for name in loaded('repro')\n"
        "           if name not in ('repro', 'repro.lint')\n"
        "           and not name.startswith('repro.lint.')]\n"
        "print(json.dumps([loaded('numpy'), runtime]))\n"
    )
    assert found == [[], []]


def test_shard_worker_import_loads_no_store_analysis_or_core():
    found = probe(
        "import repro.shard.worker\n"
        "print(json.dumps(loaded('repro.store', 'repro.analysis', 'repro.core')))\n"
    )
    assert found == []


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
