import contextlib
import doctest
import io
import pathlib
import runpy

DEMOS = pathlib.Path(__file__).resolve().parent.parent / 'demos'


def run_demo(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name='__main__')
    return out.getvalue()


def test_census_demo():
    out = run_demo('census.py').split('\n')
    assert out[1:6] == [
        f"{n:>4} {c:>9} {c:>9} {c:>9} {c:>9}"
        for n, c in enumerate([1, 3, 12, 56, 288], 1)]
    assert "shifted map table equals interval table up to t^5: True" in out


def test_worked_triple_demo():
    out = run_demo('worked_triple.py')
    assert out.endswith('''
step trace of tree -> map:
  0 embed n=2 sigma=(1)(2 3)(4) alpha=(1 2)(3 4) root=1 tags=1:T:1,3:T:0
  1 A1'   n=2 sigma=(1)(2 3)(4) alpha=(1 2)(3 4) root=1 tags=1:T:1,3:M
  2 A3'   n=2 sigma=(3 5)(4 6) alpha=(3 4)(5 6) root=5 tags=3:M,5:M
''')
    assert "map  -> tree    : (1:(0:()))" in out
    assert "int  -> map     : n=2 sigma=(1 2) alpha=(1 2) root=1" in out


def test_readme_examples_run_as_doctests():
    readme = DEMOS.parent / 'README.md'
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
