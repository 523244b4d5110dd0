from fibcubes.cli import script

script()
