"""Package metadata for ``pip install -e .`` and ``python setup.py develop``.

The package lives under ``src/`` and needs only numpy at run time.  The
version must equal ``repro.__version__``; CI's docs job checks that
``python setup.py --name --version`` prints ``repro`` and that version.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
